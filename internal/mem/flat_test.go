package mem

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// TestFlatSizeIsCapacity: a fresh Flat reports its full capacity while
// holding only the unmapped bytes below its break — the capacity is a
// bound, not an allocation.
func TestFlatSizeIsCapacity(t *testing.T) {
	f := NewFlat(64 << 20)
	if f.Size() != 64<<20 {
		t.Fatalf("Size() = %d, want %d", f.Size(), 64<<20)
	}
	if len(f.data) != 64 {
		t.Fatalf("fresh Flat holds %d bytes, want 64", len(f.data))
	}
}

// TestFlatWildStorePastBreak: an in-capacity store far past the break — a
// fault-corrupted index, say — still succeeds and reads back, and stays
// outside Checksum, so fault campaigns classify it exactly as before.
func TestFlatWildStorePastBreak(t *testing.T) {
	f := NewFlat(1 << 20)
	a := f.AllocU32(16)
	f.StoreU32(a, 0x01020304)
	sum := f.Checksum()
	wild := uint64(f.Size() - 4)
	f.StoreU32(wild, 0xCAFEF00D)
	if got := f.LoadU32(wild); got != 0xCAFEF00D {
		t.Fatalf("wild store read back %#x, want 0xcafef00d", got)
	}
	if got := f.Checksum(); got != sum {
		t.Fatalf("wild store moved Checksum: %#x -> %#x", sum, got)
	}
}

// TestFlatLoadPastHighWater: an in-capacity load past every touched byte
// reads zero and does not grow the memory.
func TestFlatLoadPastHighWater(t *testing.T) {
	f := NewFlat(1 << 20)
	f.AllocU32(4)
	hwm := len(f.data)
	for _, addr := range []uint64{uint64(hwm), uint64(hwm) + 1024, uint64(f.Size() - 4)} {
		if got := f.LoadU32(addr); got != 0 {
			t.Errorf("LoadU32(%#x) = %#x past the high-water mark, want 0", addr, got)
		}
	}
	if len(f.data) != hwm {
		t.Fatalf("loads grew the memory from %d to %d bytes", hwm, len(f.data))
	}
}

// TestFlatLoadStraddlesHighWater: a load whose first bytes were stored and
// whose last bytes lie past the high-water mark returns the stored low
// bytes with zeros above them.
func TestFlatLoadStraddlesHighWater(t *testing.T) {
	f := NewFlat(1 << 20)
	addr := uint64(4096)
	f.StoreU32(addr, 0xAABBCCDD)
	if len(f.data) != int(addr)+4 {
		t.Fatalf("high-water mark %d, want %d", len(f.data), addr+4)
	}
	if got := f.LoadU32(addr + 2); got != 0xAABB {
		t.Fatalf("straddling load = %#x, want 0xaabb", got)
	}
	if len(f.data) != int(addr)+4 {
		t.Fatalf("straddling load grew the memory to %d bytes", len(f.data))
	}
}

// TestFlatAllocPastCapacityPanics: the bump allocator is bounded by the
// capacity, not by the bytes grown so far.
func TestFlatAllocPastCapacityPanics(t *testing.T) {
	f := NewFlat(1 << 10)
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.Contains(msg, "out of memory") {
			t.Fatalf("Alloc past capacity: recovered %q, want an out-of-memory panic", msg)
		}
	}()
	f.Alloc(1<<10, 4)
}

// TestFlatWrappedAccessPanics: an access whose end wraps past 2^64 is out of
// bounds like any other wild address.
func TestFlatWrappedAccessPanics(t *testing.T) {
	for _, op := range []string{"load", "store"} {
		t.Run(op, func(t *testing.T) {
			f := NewFlat(1 << 10)
			addr := ^uint64(0) - 1
			p := catch(func() {
				if op == "load" {
					f.LoadU32(addr)
				} else {
					f.StoreU32(addr, 1)
				}
			})
			if ae, ok := p.(*AccessError); !ok || ae.Addr != addr {
				t.Fatalf("recovered %v, want *AccessError at %#x", p, addr)
			}
		})
	}
}

// eagerFlat is the flat memory as it was before it grew lazily: the whole
// capacity allocated and zeroed up front, behind the same wrap-safe bounds
// check. FuzzFlat holds Flat to it.
type eagerFlat struct {
	data []byte
	brk  uint64
}

func (f *eagerFlat) Alloc(n int, align uint64) uint64 {
	if align == 0 {
		align = 4
	}
	f.brk = (f.brk + align - 1) &^ (align - 1)
	base := f.brk
	f.brk += uint64(n)
	if f.brk > uint64(len(f.data)) {
		panic(fmt.Sprintf("mem: out of memory allocating %d bytes (brk %d, cap %d)",
			n, base, len(f.data)))
	}
	return base
}

func (f *eagerFlat) check(addr uint64) {
	if c := uint64(len(f.data)); addr < 64 || addr > c || c-addr < 4 {
		panic(&AccessError{Addr: addr, Len: 4, Cap: c})
	}
}

func (f *eagerFlat) LoadU32(addr uint64) uint32 {
	f.check(addr)
	return binary.LittleEndian.Uint32(f.data[addr:])
}

func (f *eagerFlat) StoreU32(addr uint64, v uint32) {
	f.check(addr)
	binary.LittleEndian.PutUint32(f.data[addr:], v)
}

func (f *eagerFlat) Checksum() uint64 {
	h := fnv.New64a()
	h.Write(f.data[:f.brk])
	return h.Sum64()
}

// catch runs fn and returns what it panicked with, or nil.
func catch(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// samePanic reports whether two recovered values are the same outcome:
// neither panicked, both raised equal *AccessErrors, or both raised the
// same out-of-memory message or runtime error.
func samePanic(a, b any) bool {
	if ea, ok := a.(*AccessError); ok {
		eb, ok := b.(*AccessError)
		return ok && *ea == *eb
	}
	return a == b
}

// FuzzFlat drives Flat and the eagerly zeroed oracle through the same
// Alloc/LoadU32/StoreU32/Checksum sequence and requires identical loads,
// checksums and panics. Each op is four bytes: the op, then its operands.
// Load and store addresses are an int8 offset from 0, 64, the break, the
// high-water mark or the capacity, so every edge is probed from both sides.
// The checked-in corpus under testdata/fuzz/FuzzFlat seeds wild stores,
// straddling loads and out-of-memory allocations.
func FuzzFlat(f *testing.F) {
	f.Fuzz(func(t *testing.T, capSel uint16, ops []byte) {
		capacity := int(capSel) % 8192
		lazy := NewFlat(capacity)
		eager := &eagerFlat{data: make([]byte, capacity), brk: 64}
		for i := 0; i+4 <= len(ops) && i < 4*256; i += 4 {
			op, b1, b2, b3 := ops[i]%4, ops[i+1], ops[i+2], ops[i+3]
			anchors := [...]uint64{0, 64, lazy.brk, uint64(len(lazy.data)), uint64(capacity)}
			addr := anchors[b1%5] + uint64(int64(int8(b2)))
			v := uint32(b3)*0x01000193 ^ uint32(i)
			var gotL, gotE uint64
			var pl, pe any
			switch op {
			case 0:
				n, align := int(b1)<<(b2%8), [...]uint64{0, 1, 4, 64}[b3%4]
				pl = catch(func() { gotL = lazy.Alloc(n, align) })
				pe = catch(func() { gotE = eager.Alloc(n, align) })
			case 1:
				pl = catch(func() { gotL = uint64(lazy.LoadU32(addr)) })
				pe = catch(func() { gotE = uint64(eager.LoadU32(addr)) })
			case 2:
				pl = catch(func() { lazy.StoreU32(addr, v) })
				pe = catch(func() { eager.StoreU32(addr, v) })
			case 3:
				pl = catch(func() { gotL = lazy.Checksum() })
				pe = catch(func() { gotE = eager.Checksum() })
			}
			if !samePanic(pl, pe) {
				t.Fatalf("op %d (%d at %#x): Flat panicked with %v, oracle with %v", i/4, op, addr, pl, pe)
			}
			if gotL != gotE {
				t.Fatalf("op %d (%d at %#x): Flat returned %#x, oracle %#x", i/4, op, addr, gotL, gotE)
			}
			if op == 0 && pl != nil {
				return // an out-of-memory break is past capacity in both
			}
			if len(lazy.data) > capacity || capacity >= 64 && uint64(len(lazy.data)) < lazy.brk {
				t.Fatalf("op %d: high-water mark %d outside [brk %d, cap %d]", i/4, len(lazy.data), lazy.brk, capacity)
			}
		}
		for a, b := range eager.data {
			if a < len(lazy.data) && lazy.data[a] != b || a >= len(lazy.data) && b != 0 {
				t.Fatalf("byte %#x: oracle holds %#x, Flat disagrees", a, b)
			}
		}
	})
}
