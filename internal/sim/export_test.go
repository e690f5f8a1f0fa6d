package sim

// SetTickEveryRound makes every engine built afterwards wrap its
// stations in the tick-everyone reference adapter, and returns the
// previous setting. It lets tests outside the package run whole
// protocols against the reference.
func SetTickEveryRound(on bool) (prev bool) {
	prev = wrapStation != nil
	wrapStation = nil
	if on {
		wrapStation = func(p Protocol) Protocol { return everyRound{p} }
	}
	return prev
}
