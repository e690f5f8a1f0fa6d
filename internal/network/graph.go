package network

// BFS returns the vector of hop distances from src in the communication
// graph; unreachable stations get -1.
func (net *Network) BFS(src int) []int {
	dist := make([]int, net.N())
	net.bfsInto(src, dist, make([]int32, 0, net.N()))
	return dist
}

// bfsInto fills dist (length N) with the hop distances from src,
// -1 for unreachable stations, using queue's backing array as the FIFO
// (popped by a head index, so capacity N never grows). It returns the
// queue for the next sweep to reuse.
func (net *Network) bfsInto(src int, dist []int, queue []int32) []int32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range net.Adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return queue
}

// Connected reports whether the communication graph is connected.
func (net *Network) Connected() bool {
	dist := net.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Eccentricity returns the largest finite hop distance from src, and
// whether all stations were reachable.
func (net *Network) Eccentricity(src int) (ecc int, connected bool) {
	return eccentricity(net.BFS(src))
}

// eccentricity returns the largest finite entry of a BFS distance
// vector, and whether every entry is finite.
func eccentricity(dist []int) (ecc int, connected bool) {
	connected = true
	for _, d := range dist {
		if d < 0 {
			connected = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, connected
}

// Diameter returns the exact diameter D of the communication graph via
// all-sources BFS, and whether the graph is connected. Disconnected
// graphs report the largest finite eccentricity. The n sweeps share
// one distance vector and one queue.
//
// O(n·m); fine for the simulation sizes in this repository.
func (net *Network) Diameter() (d int, connected bool) {
	n := net.N()
	connected = true
	dist := make([]int, n)
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		queue = net.bfsInto(v, dist, queue)
		ecc, conn := eccentricity(dist)
		if !conn {
			connected = false
		}
		if ecc > d {
			d = ecc
		}
	}
	return d, connected
}

// DiameterApprox returns a 2-approximation of the diameter using a
// double BFS sweep (exact on trees, ≥ D/2 in general); use when n is
// large and the exact O(n·m) scan is too slow.
func (net *Network) DiameterApprox() (d int, connected bool) {
	dist := net.BFS(0)
	far := 0
	for v, dd := range dist {
		if dd < 0 {
			connected = false
		}
		if dd > dist[far] {
			far = v
		}
	}
	ecc, conn := net.Eccentricity(far)
	return ecc, conn && len(dist) > 0 && dist[0] >= 0
}

// ComponentCount returns the number of connected components.
func (net *Network) ComponentCount() int {
	n := net.N()
	seen := make([]bool, n)
	count := 0
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		count++
		stack := []int32{int32(v)}
		seen[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range net.Adj[x] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return count
}

// ShortestPath returns one shortest path from src to dst (inclusive) in
// hops, or nil if unreachable.
func (net *Network) ShortestPath(src, dst int) []int {
	n := net.N()
	prev := make([]int32, n)
	for i := range prev {
		prev[i] = -2
	}
	prev[src] = -1
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if int(v) == dst {
			break
		}
		for _, w := range net.Adj[v] {
			if prev[w] == -2 {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	if prev[dst] == -2 {
		return nil
	}
	var rev []int
	for v := int32(dst); v != -1; v = prev[v] {
		rev = append(rev, int(v))
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
