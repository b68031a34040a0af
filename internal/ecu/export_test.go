package ecu

// Name reports the core name.
func (c *CPU) Name() string { return c.name }

// PC reports the program counter.
func (c *CPU) PC() uint32 { return c.pc }

// InIRQ reports whether the core is inside an interrupt handler.
func (c *CPU) InIRQ() bool { return c.inIRQ }

// Name reports the instance name.
func (m *ECCMemory) Name() string { return m.name }

// Records reports every job's timing.
func (s *Scheduler) Records() []JobRecord { return s.records }

// MissesFor reports misses of one task.
func (s *Scheduler) MissesFor(name string) int {
	n := 0
	for _, r := range s.records {
		if r.Task == name && r.Missed {
			n++
		}
	}
	return n
}
