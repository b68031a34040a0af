package ecu

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stressor"
	"repro/internal/tlm"
)

// runnerProgram is the workload every campaign run executes: a control
// loop folding a lookup table into a running checksum published at
// 0x800, kicking the watchdog (0x8000) each iteration. It exercises
// all three mechanisms — table reads hit the ECC memory, the store
// stream feeds the lockstep comparator, and the kick cadence feeds the
// watchdog.
const runnerProgram = `
	addi r1, r0, 0      ; i
	addi r2, r0, 48     ; n
	addi r3, r0, 0      ; acc
loop:
	shl  r4, r1, r6     ; r6=2 -> i*4 (set by loader)
	lw   r5, 1024(r4)   ; table[i]
	add  r3, r3, r5
	xor  r3, r3, r1
	sw   r3, 0(r8)      ; publish acc at 0x800
	sw   r0, 0(r7)      ; kick watchdog at 0x8000
	addi r1, r1, 1
	blt  r1, r2, loop
	halt
`

const (
	runnerEntry     uint32 = 0x4000
	runnerTableBase uint64 = 0x400
	runnerTableLen         = 48
	runnerAccAddr   uint64 = 0x800
	runnerWdBase    uint64 = 0x8000
)

// RunnerConfig parameterizes the ECU fault-injection runner.
type RunnerConfig struct {
	// Quantum is the temporal-decoupling quantum for both cores.
	Quantum sim.Time
	// MaxInstrs bounds runaway (corrupted) programs per core.
	MaxInstrs uint64
	// Horizon is the simulated time budget per run.
	Horizon sim.Time
	// WatchdogTimeout is the kick window.
	WatchdogTimeout sim.Time
}

// DefaultRunnerConfig returns the standard campaign parameters.
func DefaultRunnerConfig() RunnerConfig {
	return RunnerConfig{
		Quantum:         sim.NS(500),
		MaxInstrs:       100_000,
		Horizon:         sim.US(200),
		WatchdogTimeout: sim.US(50),
	}
}

// Runner executes SEU campaigns on the virtual ECU: register, program
// counter and memory upsets against the lockstep + ECC + watchdog
// mechanisms, classified golden-vs-faulty like the CAPS campaigns. The
// slot pool, the rebuild path behind ReuseOff, the checkpoint tree, fork
// windows and early exit are stressor.Host's; the runner supplies the
// model below.
type Runner struct {
	*stressor.Host[*ecuSlot, analysis.Observation]
}

// NewRunner assembles the workload, builds the first slot and performs
// the golden run.
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	m, err := newModel(cfg)
	if err != nil {
		return nil, err
	}
	h, err := stressor.NewHost[*ecuSlot, analysis.Observation]("ecu", m, m.cfg.Horizon)
	if err != nil {
		return nil, err
	}
	return &Runner{Host: h}, nil
}

// Universe enumerates a representative SEU space at the given
// activation time: register bits on both cores, program-counter bits,
// and stored-codeword bits (data and check) in the primary's table,
// result cell and program text.
func (r *Runner) Universe(start sim.Time) []fault.Descriptor {
	var out []fault.Descriptor
	add := func(target string, addr uint64, bit uint) {
		out = append(out, fault.Descriptor{
			Name:    fmt.Sprintf("%s/a%#x.b%d@%s", target, addr, bit, start),
			Model:   fault.BitFlip,
			Class:   fault.Permanent,
			Domain:  fault.DigitalHW,
			Target:  target,
			Address: addr,
			Bit:     bit,
			Start:   start,
		})
	}
	for _, reg := range []uint64{1, 3, 5, 9} {
		for _, bit := range []uint{0, 7, 31} {
			add("ecu.primary.regs", reg, bit)
			add("ecu.shadow.regs", reg, bit)
		}
	}
	for _, bit := range []uint{2, 3} {
		add("ecu.primary.pc", 0, bit)
	}
	for _, addr := range []uint64{
		runnerTableBase, runnerTableBase + 0x40, runnerTableBase + 4*(runnerTableLen-1),
		runnerAccAddr, uint64(runnerEntry) + 8,
	} {
		for _, bit := range []uint{0, 5, 33} {
			add("ecu.primary.mem", addr, bit)
		}
	}
	return out
}

// model is the dual-core ECU as stressor.Host runs it. The golden fields
// are set once, from the golden run. The slot digest covers its whole
// state, histories included, so a run that joins another's trajectory
// ends with that run's observation: the record is that observation.
type model struct {
	stressor.FinalObservation[*ecuSlot]
	cfg     RunnerConfig
	program []uint32

	goldenRegs  [2][16]uint32
	goldenTable []byte
	// golden is the golden run's outputs: a run whose outputs equal them
	// carries this very string.
	golden string
}

func newModel(cfg RunnerConfig) (*model, error) {
	if cfg.Quantum == 0 {
		cfg = DefaultRunnerConfig()
	}
	program, err := Assemble(runnerProgram)
	if err != nil {
		return nil, fmt.Errorf("ecu: runner program: %w", err)
	}
	return &model{cfg: cfg, program: program}, nil
}

// ecuSlot is one dual-core prototype elaborated on its kernel.
type ecuSlot struct {
	k        *sim.Kernel
	wd       *Watchdog
	primary  *CPU
	shadow   *CPU
	pram     *ECCMemory
	sram     *ECCMemory
	wdshadow *tlm.Memory
	ls       *Lockstep

	// run-phase process bodies, created once in Build: the cores and the
	// stopper run as method-process state machines (see corerun.go) so an
	// elaborated run kernel stays snapshottable.
	pRun, sRun *coreRunner
	stop       *stopRunner

	// per-run state
	completion
	tableBuf []byte // table's scratch buffer
}

// completion is the slot's run state: each core's outcome, and when
// both were done.
type completion struct {
	pDone, sDone bool
	pErr, sErr   error
	haltAt       sim.Time
}

// Build elaborates a fresh dual-core prototype on k, ready to run.
func (m *model) Build(k *sim.Kernel) (*ecuSlot, *fault.Registry) {
	s := &ecuSlot{k: k, tableBuf: make([]byte, 4*runnerTableLen)}
	s.wd = NewWatchdog(k, "ecu.wd", m.cfg.WatchdogTimeout)

	s.primary = NewCPU("ecu.primary")
	s.pram = NewECCMemory(0, 64*1024)
	pbus := tlm.NewRouter("ecu.primary.bus")
	pbus.MustMap("ram", 0, runnerWdBase, s.pram)
	pbus.MustMap("wd", runnerWdBase, 0x100, s.wd)
	s.primary.Bus.Bind(pbus)

	s.shadow = NewCPU("ecu.shadow")
	s.sram = NewECCMemory(0, 64*1024)
	s.wdshadow = tlm.NewMemory("ecu.shadow.wdshadow", runnerWdBase, 0x100)
	sbus := tlm.NewRouter("ecu.shadow.bus")
	sbus.MustMap("ram", 0, runnerWdBase, s.sram)
	sbus.MustMap("wdshadow", runnerWdBase, 0x100, s.wdshadow)
	s.shadow.Bus.Bind(sbus)

	s.ls = NewLockstep(s.primary, s.shadow)

	s.pRun = &coreRunner{cpu: s.primary, quantum: m.cfg.Quantum, maxInstrs: m.cfg.MaxInstrs,
		name: "ecu.run.primary", onDone: func(err error) { s.pErr = err; s.pDone = true }}
	s.sRun = &coreRunner{cpu: s.shadow, quantum: m.cfg.Quantum, maxInstrs: m.cfg.MaxInstrs,
		name: "ecu.run.shadow", onDone: func(err error) { s.sErr = err; s.sDone = true }}
	s.stop = &stopRunner{s: s}

	reg := fault.NewRegistry()
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "ecu.primary.regs",
		Models:   []fault.Model{fault.BitFlip},
		InjectFn: func(d fault.Descriptor) error {
			s.primary.FlipRegBit(int(d.Address), d.Bit)
			return nil
		},
	})
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "ecu.shadow.regs",
		Models:   []fault.Model{fault.BitFlip},
		InjectFn: func(d fault.Descriptor) error {
			s.shadow.FlipRegBit(int(d.Address), d.Bit)
			return nil
		},
	})
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "ecu.primary.pc",
		Models:   []fault.Model{fault.BitFlip},
		InjectFn: func(d fault.Descriptor) error {
			s.primary.FlipPCBit(d.Bit)
			return nil
		},
	})
	reg.MustRegister(&fault.FuncInjector{
		SiteName: "ecu.primary.mem",
		Models:   []fault.Model{fault.BitFlip},
		InjectFn: func(d fault.Descriptor) error {
			return s.pram.FlipStoredBit(d.Address, d.Bit)
		},
	})

	m.seed(s)
	s.beginRun()
	return s, reg
}

// seed loads program, table and core state.
func (m *model) seed(s *ecuSlot) {
	for _, ram := range []*ECCMemory{s.pram, s.sram} {
		LoadProgram(ram, uint64(runnerEntry), m.program)
		for i := 0; i < runnerTableLen; i++ {
			v := uint32(i*7 + 3)
			p := tlm.NewWrite(runnerTableBase+uint64(4*i),
				[]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
			ram.TransportDbg(p)
		}
	}
	for _, c := range []*CPU{s.primary, s.shadow} {
		c.Reset(runnerEntry)
		c.SetReg(6, 2)                    // shift amount for i*4
		c.SetReg(7, uint32(runnerWdBase)) // watchdog kick register
		c.SetReg(8, uint32(runnerAccAddr))
	}
}

// beginRun elaborates the run-phase processes (cores, stopper) on the
// slot's kernel, in the fixed order the process-id-dependent schedule
// relies on, and arms the watchdog. The host elaborates the slot's
// stressor after it.
func (s *ecuSlot) beginRun() {
	s.wd.Start()
	s.pRun.elaborate(s.k)
	s.sRun.elaborate(s.k)
	s.stop.elaborate(s.k)
}

// Observe reads mechanisms and observable outputs off a slot whose run
// completed.
func (m *model) Observe(s *ecuSlot) analysis.Observation {
	s.ls.FinalCheck()
	// A core trap (bus error, illegal opcode) escalates to the safety
	// path, as real lockstep MCUs do.
	for _, e := range []error{s.pErr, s.sErr} {
		if e != nil {
			s.ls.diverged = true
			if s.ls.detail == "" {
				s.ls.detail = "core trap: " + e.Error()
			}
		}
	}

	ob := analysis.Observation{Outputs: m.outputs(readWord(s.pram, runnerAccAddr), readWord(s.sram, runnerAccAddr),
		s.primary.Halted(), s.shadow.Halted())}
	var fired int // a set of detectedBy's mechanisms
	if s.ls.Diverged() {
		fired |= 1
	}
	if s.wd.Timeouts() > 0 {
		fired |= 2
	}
	pc, pu := s.pram.Stats()
	sc, su := s.sram.Stats()
	if pc+pu+sc+su > 0 {
		fired |= 4
	}
	ob.Detected, ob.DetectedBy = fired != 0, detectedBy[fired]
	if m.goldenTable != nil {
		ob.LatentState = s.regs() != m.goldenRegs || !bytes.Equal(s.table(), m.goldenTable)
	}
	return ob
}

// Golden keeps the golden run's register files and table image, which
// later runs' latent state is judged against.
func (m *model) Golden(s *ecuSlot, ob analysis.Observation) error {
	if ob.Detected {
		return fmt.Errorf("ecu: golden run tripped a mechanism: %v", ob.DetectedBy)
	}
	m.goldenRegs, m.goldenTable = s.regs(), bytes.Clone(s.table())
	m.golden = ob.Outputs
	return nil
}

// detectedBy lists the mechanisms of each set Observe finds fired — bit 0
// the lockstep comparator, bit 1 the watchdog, bit 2 the ECC — in that
// order. The lists are shared and never written, so an observation costs
// none.
var detectedBy = [8][]string{
	nil, {"lockstep"}, {"watchdog"}, {"lockstep", "watchdog"},
	{"ecc"}, {"lockstep", "ecc"}, {"watchdog", "ecc"}, {"lockstep", "watchdog", "ecc"},
}

// outputs is a run's externally visible results as one comparable value:
// both cores' result words, little-endian, then a byte of their halt bits
// (OutputsOf reads them back). Results equal to golden's are golden's
// string; any other allocates its one.
func (m *model) outputs(acc, sacc uint32, halted, shadowHalted bool) string {
	var b [9]byte
	binary.LittleEndian.PutUint32(b[0:], acc)
	binary.LittleEndian.PutUint32(b[4:], sacc)
	if halted {
		b[8] |= 1
	}
	if shadowHalted {
		b[8] |= 2
	}
	if string(b[:]) == m.golden {
		return m.golden
	}
	return string(b[:])
}

// Outputs are an ECU run's externally visible results, per core: the
// primary's at 0, the shadow's at 1.
type Outputs struct {
	// Acc is the checksum each core published at 0x800.
	Acc [2]uint32
	// Halted reports whether each core reached its halt.
	Halted [2]bool
}

// OutputsOf reads back the outputs of the ECU run ob was read off.
func OutputsOf(ob analysis.Observation) Outputs {
	b := []byte(ob.Outputs)
	if len(b) != 9 {
		return Outputs{}
	}
	return Outputs{
		Acc:    [2]uint32{binary.LittleEndian.Uint32(b[0:]), binary.LittleEndian.Uint32(b[4:])},
		Halted: [2]bool{b[8]&1 != 0, b[8]&2 != 0},
	}
}

// regs returns both cores' register files.
func (s *ecuSlot) regs() (regs [2][16]uint32) {
	for i := 0; i < 16; i++ {
		regs[0][i] = s.primary.Reg(i)
		regs[1][i] = s.shadow.Reg(i)
	}
	return regs
}

// table reads the primary's table image into the slot's scratch buffer.
func (s *ecuSlot) table() []byte {
	p := tlm.Payload{Command: tlm.CmdRead, Address: runnerTableBase, Data: s.tableBuf}
	s.pram.TransportDbg(&p)
	return s.tableBuf
}

// readWord fetches one word through the debug port.
func readWord(m *ECCMemory, addr uint64) uint32 {
	var raw [4]byte
	p := tlm.Payload{Command: tlm.CmdRead, Address: addr, Data: raw[:]}
	m.TransportDbg(&p)
	return binary.LittleEndian.Uint32(raw[:])
}
