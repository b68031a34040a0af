package ecu

import (
	"repro/internal/sim"
	"repro/internal/tlm"
)

// Watchdog is a memory-mapped timeout monitor: software must write
// the kick register (offset 0) within Timeout of the previous kick,
// otherwise the watchdog fires — incrementing the timeout count and
// re-arming. It detects the "additional delay" error class (Sec. 3.4):
// a task that still produces right values but too late stops kicking
// in time.
type Watchdog struct {
	// Timeout is the maximum allowed kick interval.
	Timeout sim.Time

	timer *sim.Event
	wdState
}

// wdState is the watchdog's run state (the pending expiry is timer's).
type wdState struct {
	enabled  bool
	timeouts uint64
	kicks    uint64
}

// NewWatchdog creates a stopped watchdog.
func NewWatchdog(k *sim.Kernel, name string, timeout sim.Time) *Watchdog {
	w := &Watchdog{Timeout: timeout, timer: k.NewEvent(name + ".timer")}
	k.MethodNoInit(name+".expire", w.expire, w.timer)
	return w
}

// Start arms the watchdog; the first window begins now.
func (w *Watchdog) Start() {
	w.enabled = true
	w.timer.Notify(w.Timeout)
}

// Stop disarms the watchdog.
func (w *Watchdog) Stop() {
	w.enabled = false
	w.timer.Cancel()
}

// Kick restarts the window.
func (w *Watchdog) Kick() {
	if !w.enabled {
		return
	}
	w.kicks++
	// Cancel first: IEEE 1666 notify rules keep the *earlier* pending
	// notification, and a kick always pushes the expiry later.
	w.timer.Cancel()
	w.timer.Notify(w.Timeout)
}

func (w *Watchdog) expire() {
	if !w.enabled {
		return
	}
	w.timeouts++
	// Re-arm: a stuck system keeps counting windows.
	w.timer.Notify(w.Timeout)
}

// Timeouts reports expired windows.
func (w *Watchdog) Timeouts() uint64 { return w.timeouts }

// BTransport implements tlm.Target: any write to offset 0 kicks; a
// read of offset 0 returns the timeout count (diagnosis register).
func (w *Watchdog) BTransport(p *tlm.Payload, delay *sim.Time) {
	switch p.Command {
	case tlm.CmdWrite:
		w.Kick()
	case tlm.CmdRead:
		v := uint32(w.timeouts)
		for i := range p.Data {
			p.Data[i] = byte(v >> (8 * uint(i%4)))
		}
	}
	p.Response = tlm.RespOK
}
