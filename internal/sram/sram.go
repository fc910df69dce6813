// Package sram models an EVE SRAM array: a 6T-SRAM storage core whose
// differential sense amplifiers can be reconfigured into single-ended mode so
// that activating two wordlines simultaneously computes bit-wise logical
// operations on the bitlines (bit-line compute, after Jeloka et al.). A
// bit-line compute yields AND, NAND, OR and NOR of the two selected wordlines
// in one array access; the EVE peripheral circuit stacks (internal/circuits)
// consume those outputs.
//
// The physical EVE SRAM in the paper is two banked 256×128 sub-arrays
// presenting a 256×256 logical array. The functional model here is a single
// logical array of configurable geometry; the banked physical split only
// affects area (internal/analytic), not logical behaviour.
package sram

import (
	"fmt"

	"repro/internal/bitmat"
)

// Standard EVE SRAM geometry from the paper (§VI): a sub-array is 256×128,
// and an EVE SRAM is two banked sub-arrays, logically 256 rows × 256 columns.
const (
	SubArrayRows = 256
	SubArrayCols = 128
	ArrayRows    = 256
	ArrayCols    = 2 * SubArrayCols
)

// AccessStats counts array-level operations, the inputs to the energy model
// (§VI: blc costs ~20% more than a read; reads and writes match vanilla SRAM).
type AccessStats struct {
	Reads  uint64
	Writes uint64
	BLCs   uint64
}

// Array is one EVE SRAM logical array: a bit matrix plus the reconfigurable
// sense-amplifier outputs of the most recent bit-line compute.
type Array struct {
	mat *bitmat.Matrix

	// The per-column sense rows, whole (full) and as the active-prefix
	// views modeled accesses use (act, see SetActive).
	full, act  senseRows
	words      int // active prefix, in storage words
	senseValid bool

	stats AccessStats

	// Fault-injection state (internal/faults). seq counts modeled accesses
	// (reads, writes, bit-line computes) since construction; it is never
	// reset, so an armed fault fires at a reproducible point of a run.
	faulty bool
	anyStk bool // any stuck column armed
	seq    uint64
	flips  []bitFlip

	// gens counts, per wordline, the changes to its cells (Generation). The
	// first query allocates it, so an array nobody asks (the timing model's
	// counting machines) carries one nil pointer.
	gens *[]uint64
}

// senseRows are the sense amplifiers' per-column state: the outputs of the
// most recent bit-line compute, valid until the next array operation that
// drives the bitlines, and the columns stuck at 0 and at 1.
type senseRows struct {
	and, nand, or, nor bitmat.Row
	stuck0, stuck1     bitmat.Row
}

func (r *senseRows) prefix(words int) senseRows {
	return senseRows{
		and: r.and.Prefix(words), nand: r.nand.Prefix(words),
		or: r.or.Prefix(words), nor: r.nor.Prefix(words),
		stuck0: r.stuck0.Prefix(words), stuck1: r.stuck1.Prefix(words),
	}
}

// bitFlip is an armed single-event upset: the cell at (row, col) inverts
// immediately before access number seq.
type bitFlip struct {
	row, col int
	seq      uint64
}

// New returns a zeroed array with the given geometry.
func New(rows, cols int) *Array {
	a := &Array{
		mat: bitmat.NewMatrix(rows, cols),
		full: senseRows{
			and: bitmat.NewRow(cols), nand: bitmat.NewRow(cols),
			or: bitmat.NewRow(cols), nor: bitmat.NewRow(cols),
			stuck0: bitmat.NewRow(cols), stuck1: bitmat.NewRow(cols),
		},
	}
	a.SetActive(bitmat.Words(cols))
	return a
}

// NewStandard returns an array with the paper's 256×256 logical geometry.
func NewStandard() *Array { return New(ArrayRows, ArrayCols) }

// Rows reports the number of wordlines.
func (a *Array) Rows() int { return a.mat.Rows() }

// Cols reports the number of bitlines.
func (a *Array) Cols() int { return a.mat.Cols() }

// Stats returns a snapshot of the access counters.
func (a *Array) Stats() AccessStats { return a.stats }

// ResetStats zeroes the access counters.
func (a *Array) ResetStats() { a.stats = AccessStats{} }

// SetActive bounds every later modeled access — Read, ReadInto, Write,
// WriteMasked and BitLineCompute — to the active prefix: the first words
// storage words of each row, columns [0, 64·words). Columns beyond it are
// neither sensed nor written, and the sense outputs there keep stale values.
// The rows those accesses take and return are as wide as the prefix
// (Active). The access sequence, AccessStats, bit-flip firing (a flip
// outside the prefix still inverts its cell) and the data port are
// unaffected. A new array's prefix is every word.
func (a *Array) SetActive(words int) {
	a.words = words
	a.act = a.full.prefix(words)
}

// Active returns the active prefix of r, a row as wide as the array.
func (a *Array) Active(r bitmat.Row) bitmat.Row {
	if r.Width() != a.Cols() {
		panic(fmt.Sprintf("sram: row width %d, want the array's %d", r.Width(), a.Cols()))
	}
	return r.Prefix(a.words)
}

// row returns the active prefix of wordline i.
func (a *Array) row(i int) bitmat.Row { return a.mat.Row(i).Prefix(a.words) }

// ArmBitFlip arms a transient single-event upset: immediately before the
// array's seq-th modeled access (0-based; reads, writes and bit-line computes
// all count), the stored bit at (row, col) inverts. The corruption is a state
// change in the cell and persists until the row is rewritten. Multiple flips
// may be armed; each fires at most once.
func (a *Array) ArmBitFlip(row, col int, seq uint64) {
	a.flips = append(a.flips, bitFlip{row: row, col: col, seq: seq})
	a.faulty = true
}

// FlipReach reports one past the highest column of any armed bit flip that
// has not fired yet, or 0 when there is none.
func (a *Array) FlipReach() int {
	reach := 0
	for _, f := range a.flips {
		reach = max(reach, f.col+1)
	}
	return reach
}

// SetColumnStuck forces sense-amplifier column col to read v: every Read and
// every bit-line compute reports bit v in that column (and its complement on
// the inverted outputs), regardless of the stored data. The cells themselves
// are unaffected, as are the data port's transfers (ReadElements,
// WriteElements, SaveRows, RestoreColumns), which bypass the sense
// amplifiers.
func (a *Array) SetColumnStuck(col int, v bool) {
	if v {
		a.full.stuck1.SetBit(col, true)
	} else {
		a.full.stuck0.SetBit(col, true)
	}
	a.faulty = true
	a.anyStk = true
}

// ClearFaults disarms every fault. The access sequence counter keeps
// counting, and corruption already written to cells remains.
func (a *Array) ClearFaults() {
	a.flips = nil
	if a.anyStk {
		a.full.stuck0.Zero()
		a.full.stuck1.Zero()
	}
	a.anyStk = false
	a.faulty = false
}

// Accesses reports the number of modeled accesses (reads + writes + bit-line
// computes) performed since construction. Fault sites are addressed in this
// sequence space: ArmBitFlip's seq refers to the access index this counter
// will hold when the fault fires.
func (a *Array) Accesses() uint64 { return a.seq }

// Skip advances the access sequence past n accesses that are not performed:
// Accesses grows by n, and the cells, the sense outputs and AccessStats are
// untouched. A caller that knows how many accesses a data-independent
// program makes uses it to stay in step without running the program. It
// panics if an armed bit flip would fire among the skipped accesses, since
// that fault would be lost.
func (a *Array) Skip(n uint64) {
	for _, f := range a.flips {
		if f.seq >= a.seq && f.seq-a.seq < n {
			panic(fmt.Sprintf("sram: skipping accesses [%d,%d) would step over the bit flip armed at access %d", a.seq, a.seq+n, f.seq))
		}
	}
	a.seq += n
}

// tick advances the access sequence and fires any bit flips armed for the
// access that is about to execute.
func (a *Array) tick() {
	if a.faulty && len(a.flips) > 0 {
		kept := a.flips[:0]
		for _, f := range a.flips {
			if f.seq == a.seq {
				a.mat.SetBit(f.row, f.col, !a.mat.Bit(f.row, f.col))
				a.bump(f.row, 1)
			} else {
				kept = append(kept, f)
			}
		}
		a.flips = kept
	}
	a.seq++
}

// Generation reports the write generation of rows [row, row+n): the number
// of changes to their cells — Write, WriteMasked, WriteElements,
// RestoreColumns, Reset and fired bit flips each count one per row they
// touch, whether or not a bit changed value — since the array's first
// Generation call. Equal generations at two points mean the rows' cells
// are the same at both. Changes before the first call are not counted:
// query once before the first change you need to see.
func (a *Array) Generation(row, n int) uint64 {
	if a.gens == nil {
		gens := make([]uint64, a.Rows())
		a.gens = &gens
	}
	var g uint64
	for _, x := range (*a.gens)[row : row+n] {
		g += x
	}
	return g
}

// bump counts a change to rows [row, row+n) once generations are tracked.
func (a *Array) bump(row, n int) {
	if a.gens != nil {
		gens := (*a.gens)[row : row+n]
		for i := range gens {
			gens[i]++
		}
	}
}

// applyStuck forces the stuck sense columns in a positive-sense output row.
func (a *Array) applyStuck(r bitmat.Row) {
	if !a.anyStk {
		return
	}
	r.AndNot(r, a.act.stuck0)
	r.Or(r, a.act.stuck1)
}

// Read performs a normal (differential) SRAM read of wordline row, returning
// a snapshot of its contents; columns outside the active prefix read as 0.
func (a *Array) Read(row int) bitmat.Row {
	v := bitmat.NewRow(a.Cols())
	a.ReadInto(row, a.Active(v))
	return v
}

// ReadInto performs the same read as Read, latching the sensed active prefix
// into dst, a row as wide as the prefix, instead of a fresh snapshot.
func (a *Array) ReadInto(row int, dst bitmat.Row) {
	a.tick()
	a.stats.Reads++
	a.senseValid = false
	dst.CopyFrom(a.row(row))
	a.applyStuck(dst)
}

// Peek returns the live contents of a wordline without modeling an access.
// It is for testing and debugging only.
func (a *Array) Peek(row int) bitmat.Row { return a.mat.Row(row) }

// Write performs an SRAM write of data, a row as wide as the active prefix,
// into wordline row's active prefix.
func (a *Array) Write(row int, data bitmat.Row) {
	a.tick()
	a.stats.Writes++
	a.senseValid = false
	a.row(row).CopyFrom(data)
	a.bump(row, 1)
}

// WriteMasked writes data into wordline row only at columns where mask is
// set, modeling per-column write enables; data and mask are as wide as the
// active prefix.
func (a *Array) WriteMasked(row int, data, mask bitmat.Row) {
	a.tick()
	a.stats.Writes++
	a.senseValid = false
	dst := a.row(row)
	dst.Mux(mask, data, dst)
	a.bump(row, 1)
}

// BitLineCompute activates wordlines ra and rb simultaneously with the sense
// amplifiers in single-ended mode, computing the four bit-wise logical
// operations of the two rows in one access. ra may equal rb, which yields
// and=or=row and nand=nor=complement — the idiom used to read a row's
// complement without extra hardware.
func (a *Array) BitLineCompute(ra, rb int) {
	a.tick()
	a.stats.BLCs++
	// Stuck sense columns force both single-ended outputs; the inverted
	// outputs are derived downstream and carry the complement.
	s := &a.act
	bitmat.SenseBitLines(s.and, s.nand, s.or, s.nor, a.row(ra), a.row(rb), s.stuck0, s.stuck1)
	a.senseValid = true
}

// SenseValid reports whether the sense-amplifier outputs are valid (a
// bit-line compute has happened since the last read/write).
func (a *Array) SenseValid() bool { return a.senseValid }

// And returns the AND output of the last bit-line compute, over the active
// prefix.
func (a *Array) And() bitmat.Row { return a.mustSense(a.act.and) }

// Nand returns the NAND output of the last bit-line compute.
func (a *Array) Nand() bitmat.Row { return a.mustSense(a.act.nand) }

// Or returns the OR output of the last bit-line compute.
func (a *Array) Or() bitmat.Row { return a.mustSense(a.act.or) }

// Nor returns the NOR output of the last bit-line compute.
func (a *Array) Nor() bitmat.Row { return a.mustSense(a.act.nor) }

func (a *Array) mustSense(r bitmat.Row) bitmat.Row {
	if !a.senseValid {
		panic("sram: sense-amplifier outputs read without a preceding bit-line compute")
	}
	return r
}

// Reset zeroes the storage core and invalidates the sense outputs.
func (a *Array) Reset() {
	a.mat.Reset()
	a.senseValid = false
	a.bump(0, a.Rows())
}

// ReadElements reads len(dst) consecutive 32-bit elements, starting at
// element first, of the register stored transposed from row baseRow: element
// e occupies column group e (segBits columns, the parallelization factor n)
// and its 32/n segments sit in consecutive rows, the layout data arrives in
// after the DTU (§V). Like every data-port transfer it reads the cells
// directly: it is not a modeled access, so it neither ticks the access
// sequence nor counts in AccessStats, and stuck sense columns do not affect
// it.
func (a *Array) ReadElements(baseRow, segBits, first int, dst []uint32) {
	a.mat.ReadElements(baseRow, segBits, first, dst)
}

// WriteElements writes src into consecutive elements from element first of
// the register stored transposed from row baseRow, through the data port.
func (a *Array) WriteElements(baseRow, segBits, first int, src []uint32) {
	a.mat.WriteElements(baseRow, segBits, first, src)
	if len(src) > 0 {
		a.bump(baseRow, 32/segBits)
	}
}

// SaveRows copies rows [row, row+len(dst)) into dst through the data port.
func (a *Array) SaveRows(row int, dst []bitmat.Row) {
	for i, d := range dst {
		d.CopyFrom(a.mat.Row(row + i))
	}
}

// RestoreColumns writes columns [col, Cols()) of src back into rows
// [row, row+len(src)) through the data port, leaving the columns below col
// as they are.
func (a *Array) RestoreColumns(row, col int, src []bitmat.Row) {
	for i, s := range src {
		a.mat.Row(row+i).CopyColumnsFrom(s, col)
	}
	a.bump(row, len(src))
}
