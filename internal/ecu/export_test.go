package ecu

// Name reports the core name.
func (c *CPU) Name() string { return c.name }

// PC reports the program counter.
func (c *CPU) PC() uint32 { return c.pc }

// Instructions reports the retired instruction count.
func (c *CPU) Instructions() uint64 { return c.instrs }

// Kicks reports accepted kicks.
func (w *Watchdog) Kicks() uint64 { return w.kicks }

// MustAssemble is Assemble that panics.
func MustAssemble(src string) []uint32 {
	w, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return w
}

// Detail describes the first divergence.
func (ls *Lockstep) Detail() string { return ls.detail }
