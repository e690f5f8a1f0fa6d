// Package network models a wireless network: stations embedded in a
// metric space, the communication graph G with edges between stations at
// distance ≤ 1-ε (§1.1), and the graph statistics the paper's bounds are
// stated in: diameter D, maximum degree Δ, and granularity Rs.
package network

import (
	"fmt"
	"math"

	"sinrcast/internal/geom"
	"sinrcast/internal/sinr"
)

// Network is an immutable deployment of stations plus its communication
// graph. Build it with New.
type Network struct {
	Space  geom.Space
	Params sinr.Params
	// Adj is the adjacency list of the communication graph
	// (edges of metric length ≤ 1-ε), excluding self-loops.
	Adj [][]int32
	// Meta records generator-reported facts about how the deployment
	// was produced — e.g. the connectivity-retry attempt count and the
	// final side/sigma a densifying generator actually used. Nil for
	// hand-built networks; keys are generator-specific.
	Meta map[string]float64
}

// New builds the network and its communication graph. For Euclidean
// spaces edge discovery is grid-bucketed (O(n·deg)); other metrics use
// the O(n²) pairwise scan.
func New(s geom.Space, p sinr.Params) (*Network, error) {
	if err := p.Validate(s.Growth()); err != nil {
		return nil, err
	}
	n := s.Len()
	if n == 0 {
		return nil, fmt.Errorf("network: empty station set")
	}
	net := &Network{Space: s, Params: p, Adj: make([][]int32, n)}
	radius := p.CommRadius()
	link := func(i, j int32) {
		net.Adj[i] = append(net.Adj[i], j)
		net.Adj[j] = append(net.Adj[j], i)
	}
	if eu, ok := s.(*geom.Euclidean); ok && n > 64 {
		r2 := radius * radius
		gridPairs(eu.Pts, radius, func(i, j int32) {
			if eu.Pts[i].Dist2(eu.Pts[j]) <= r2 {
				link(i, j)
			}
		})
	} else {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if s.Dist(i, j) <= radius {
					link(int32(i), int32(j))
				}
			}
		}
	}
	return net, nil
}

// gridPairs bucket-grids points into square cells of side cell and
// calls visit(i, j), i < j, for every pair in the same or adjacent
// cells — a superset of the pairs within distance cell, so only the
// 3×3 neighborhood needs pairwise checks.
func gridPairs(pts []geom.Point, cell float64, visit func(i, j int32)) {
	minX, minY := math.Inf(1), math.Inf(1)
	for _, q := range pts {
		minX = math.Min(minX, q.X)
		minY = math.Min(minY, q.Y)
	}
	type key struct{ x, y int32 }
	buckets := make(map[key][]int32, len(pts))
	keyOf := func(q geom.Point) key {
		return key{int32((q.X - minX) / cell), int32((q.Y - minY) / cell)}
	}
	for i, q := range pts {
		k := keyOf(q)
		buckets[k] = append(buckets[k], int32(i))
	}
	for i, q := range pts {
		k := keyOf(q)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for _, j := range buckets[key{k.x + dx, k.y + dy}] {
					if int32(i) < j {
						visit(int32(i), j)
					}
				}
			}
		}
	}
}

// Balls returns, for every station i, the stations j ≠ i with
// Space.Dist(i, j) <= r — the exact metric test, which can differ from
// the squared-distance test the comm graph uses at the boundary (at
// r = 1, Sqrt rounds 1+2⁻⁵² down to 1). Euclidean spaces above 64 stations bucket
// on a grid whose cells are a hair wider than r, so rounding in the
// cell index cannot push a pair at distance r two cells apart; other
// spaces scan all pairs. Lists are not sorted.
func (net *Network) Balls(r float64) [][]int32 {
	n := net.N()
	balls := make([][]int32, n)
	link := func(i, j int32) {
		if net.Space.Dist(int(i), int(j)) <= r {
			balls[i] = append(balls[i], j)
			balls[j] = append(balls[j], i)
		}
	}
	if eu, ok := net.Space.(*geom.Euclidean); ok && n > 64 {
		gridPairs(eu.Pts, r*(1+1e-9), link)
	} else {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				link(int32(i), int32(j))
			}
		}
	}
	return balls
}

// N returns the number of stations.
func (net *Network) N() int { return net.Space.Len() }

// Degree returns the communication-graph degree of station i.
func (net *Network) Degree(i int) int { return len(net.Adj[i]) }

// MaxDegree returns Δ, the maximum degree of the communication graph.
func (net *Network) MaxDegree() int {
	d := 0
	for i := range net.Adj {
		if len(net.Adj[i]) > d {
			d = len(net.Adj[i])
		}
	}
	return d
}

// EdgeCount returns the number of undirected edges.
func (net *Network) EdgeCount() int {
	total := 0
	for i := range net.Adj {
		total += len(net.Adj[i])
	}
	return total / 2
}

// Granularity returns Rs: the maximum ratio between metric lengths of
// communication-graph edges ([5], §1.3). Networks with < 1 edge return 1.
func (net *Network) Granularity() float64 {
	minE, maxE := math.Inf(1), 0.0
	for i := range net.Adj {
		for _, j := range net.Adj[i] {
			if int32(i) < j {
				d := net.Space.Dist(i, int(j))
				minE = math.Min(minE, d)
				maxE = math.Max(maxE, d)
			}
		}
	}
	if maxE == 0 || minE == 0 {
		return 1
	}
	return maxE / minE
}

// Neighbors returns the neighbor set N(v) of station v in G.
func (net *Network) Neighbors(v int) []int32 { return net.Adj[v] }
