// Package mem provides the memory-system substrate: a flat functional data
// memory used by workload execution, and a cycle-approximate timing model of
// the cache hierarchy of Table III — parameterized caches with banks and
// MSHRs over a single-channel DDR4-2400-like DRAM. The timing model follows
// the same philosophy as the paper's gem5 setup: requests carry a timestamp
// and each level returns when the data is available, with structural hazards
// (bank conflicts, MSHR exhaustion) pushing acceptance later.
package mem

import (
	"encoding/binary"
	"fmt"
)

// AccessError reports a flat-memory access outside the mapped range — a
// wild address, typically a kernel bug or a fault-corrupted index register.
// Flat panics with a *AccessError so the invariant still fails loudly, while
// sim.Run can recover it into a typed SimError for fault campaigns.
type AccessError struct {
	Addr uint64 // first byte of the offending access
	Len  int    // access length in bytes
	Cap  uint64 // mapped capacity
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: access [%#x,%#x) out of bounds (capacity %#x)",
		e.Addr, e.Addr+uint64(e.Len), e.Cap)
}

// Flat is the functional data memory: a byte-addressable array with a bump
// allocator. Address 0 is kept unmapped so that zero-value addresses fault
// loudly.
//
// The capacity is a bound, not an allocation: data grows to the high-water
// mark of the break and of stored-to addresses, and every byte past it reads
// as the zero it would hold in an eagerly zeroed array. A run therefore pays
// only for the memory it touches, while bounds checks, *AccessError and the
// out-of-memory panic still see the full capacity.
type Flat struct {
	data []byte // bytes [0, high-water mark); never longer than capacity
	cap  uint64
	brk  uint64
}

// NewFlat returns a flat memory with the given capacity in bytes. It holds
// only the unmapped bytes below the initial break until the run grows it.
func NewFlat(capacity int) *Flat {
	return &Flat{data: make([]byte, min(capacity, 64)), cap: uint64(capacity), brk: 64}
}

// grow extends data with zero bytes so that it covers [0, end).
func (f *Flat) grow(end uint64) {
	if have := uint64(len(f.data)); end > have {
		f.data = append(f.data, make([]byte, end-have)...) //evelint:allow hotalloc -- amortized: the compiler turns append-of-make into an in-place extension, and data only grows to the cell's high-water mark
	}
}

// Alloc reserves n bytes aligned to align (a power of two) and returns the
// base address.
func (f *Flat) Alloc(n int, align uint64) uint64 {
	if align == 0 {
		align = 4
	}
	f.brk = (f.brk + align - 1) &^ (align - 1)
	base := f.brk
	f.brk += uint64(n)
	if f.brk > f.cap {
		panic(fmt.Sprintf("mem: out of memory allocating %d bytes (brk %d, cap %d)",
			n, base, f.cap))
	}
	f.grow(f.brk)
	return base
}

// AllocU32 reserves space for n 32-bit words and returns the base address.
func (f *Flat) AllocU32(n int) uint64 { return f.Alloc(4*n, 64) }

// check panics unless [addr, addr+n) lies in the mapped range [64, cap).
// It is written so that an access whose end wraps past 2^64 is rejected too.
func (f *Flat) check(addr uint64, n int) {
	if addr < 64 || addr > f.cap || uint64(n) > f.cap-addr {
		panic(&AccessError{Addr: addr, Len: n, Cap: f.cap})
	}
}

// LoadU32 reads the little-endian 32-bit word at addr. It and StoreU32 use
// encoding/binary because that keeps both within the inliner's budget.
func (f *Flat) LoadU32(addr uint64) uint32 {
	f.check(addr, 4)
	if addr+4 <= uint64(len(f.data)) {
		return binary.LittleEndian.Uint32(f.data[addr:])
	}
	// Past the high-water mark: the bytes not yet grown read as zero, and
	// the load does not grow the memory.
	var d [4]byte
	if addr < uint64(len(f.data)) {
		copy(d[:], f.data[addr:])
	}
	return binary.LittleEndian.Uint32(d[:])
}

// StoreU32 writes the little-endian 32-bit word v at addr.
func (f *Flat) StoreU32(addr uint64, v uint32) {
	f.check(addr, 4)
	f.grow(addr + 4)
	binary.LittleEndian.PutUint32(f.data[addr:], v)
}

// LoadI32 reads a signed 32-bit word.
func (f *Flat) LoadI32(addr uint64) int32 { return int32(f.LoadU32(addr)) }

// StoreI32 writes a signed 32-bit word.
func (f *Flat) StoreI32(addr uint64, v int32) { f.StoreU32(addr, uint32(v)) }

// Size reports the capacity in bytes.
func (f *Flat) Size() int { return int(f.cap) }

// Checksum returns an FNV-1a hash of the allocated region (addresses below
// the current break). Fault campaigns compare final-state checksums against
// a fault-free baseline to detect silent data corruption the workload
// checkers miss. Stores beyond the break — possible only through a
// wild-but-in-bounds address — are deliberately outside the hash: they can
// never be read back by a kernel whose allocations all precede them.
func (f *Flat) Checksum() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range f.data[:f.brk] {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
