package scenario

// Unique reports how many distinct non-zero signatures were noted.
func (x *SignatureIndex) Unique() int { return len(x.seen) }
