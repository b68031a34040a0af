package caps

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/can"
	"repro/internal/sim"
)

// TestHashStateDigestSeesOneBitFlips is the digest's guarantee (DESIGN
// §14) on a real CAPS state, as a seeded property: every folded word is
// one Mix64 step, which is a bijection of the word, so flipping any one
// bit of a folded field — a sensor offset, the bus's error counters and
// fault budgets, a queued frame's identifier and payload byte, a latch
// — changes System.HashState's digest, and flipping it back restores it.
func TestHashStateDigestSeesOneBitFlips(t *testing.T) {
	k := sim.NewKernel()
	defer k.Shutdown()
	sys, _ := Build(k, Protected(), NormalDriving())
	if err := k.RunUntil(sim.MS(5)); err != nil {
		t.Fatal(err)
	}
	// Two frames queued behind each other: the kernel is not run again,
	// so both stay in the fusion node's queue.
	for _, data := range [][]byte{{1, 2, 3, 4, 5, 6, 7}, {9, 8, 7}} {
		if err := sys.fusionTx.Send(can.Frame{ID: 0x123, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	bus := reflect.ValueOf(sys.bus)
	fusion := unexported(bus, "nodes").Index(0)
	queued := unexported(fusion, "queue").Index(1)
	fields := map[string]reflect.Value{
		"threshold":         reflect.ValueOf(&sys.threshold).Elem(),
		"debounceCount":     reflect.ValueOf(&sys.debounceCount).Elem(),
		"lastFrameAt":       reflect.ValueOf(&sys.lastFrameAt).Elem(),
		"sensors[1].offset": reflect.ValueOf(&sys.sensors[1].offset).Elem(),
		"bus.corruptNext":   unexported(bus, "corruptNext"),
		"bus.dropNext":      unexported(bus, "dropNext"),
		"fusion.tec":        unexported(fusion, "tec"),
		"fusion.rec":        unexported(fusion, "rec"),
		"queue[1].id":       unexported(queued, "id"),
		"queue[1].data[2]":  unexported(queued, "data").Index(2),
	}
	rng := rand.New(rand.NewSource(52))
	for name, v := range fields {
		for trial := 0; trial < 32; trial++ {
			bit := uint(rng.Intn(v.Type().Bits()))
			before := sim.StateSignature(sys)
			flipBit(v, bit)
			if sim.StateSignature(sys) == before {
				t.Errorf("%s: flipping bit %d leaves the digest %#x", name, bit, before)
			}
			flipBit(v, bit)
			if after := sim.StateSignature(sys); after != before {
				t.Fatalf("%s: flipping bit %d back gives %#x, want %#x", name, bit, after, before)
			}
		}
	}
}

// unexported is the field of the struct v holds or points to, reached by
// name through embedded structs, and settable though another package
// declares it.
func unexported(v reflect.Value, name string) reflect.Value {
	f := reflect.Indirect(v).FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// flipBit flips one bit of an integer or a float's IEEE-754 bits.
func flipBit(v reflect.Value, bit uint) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() ^ 1<<bit)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() ^ 1<<bit)
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1<<bit))
	default:
		panic("flipBit: a " + v.Kind().String())
	}
}
