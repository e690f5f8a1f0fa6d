package exp

// SetEnginePooling toggles trial engine pooling and returns the
// previous setting, so tests can pin the pooled path against fresh
// engines.
func SetEnginePooling(on bool) bool { return enginePooling.Swap(on) }
