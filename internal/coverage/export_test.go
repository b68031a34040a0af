package coverage

// Injections reports the total number of recorded injections.
func (fs *FaultSpace) Injections() int {
	n := 0
	for _, c := range fs.injected {
		n += c
	}
	return n
}
