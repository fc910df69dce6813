// Package bitmat provides dense bit-matrix storage and word-parallel row
// operations. It is the storage substrate for SRAM sub-array models: an SRAM
// array is a bit matrix whose wordlines are rows and whose bitlines are
// columns. Peripheral compute circuits operate column-wise, which maps onto
// word-parallel operations over Row values (one bit per column).
package bitmat

import (
	"fmt"
	"math/bits"
	"strings"
)

// WordBits is the number of bits per storage word.
const WordBits = 64

// Row is a fixed-width vector of bits, one bit per SRAM column. Bit c of a
// Row is column c of the array. All bitwise helpers treat receiver and
// operands as having the same width; mixing widths is a programming error.
type Row struct {
	width int
	w     []uint64
}

// NewRow returns an all-zero Row of the given width in bits.
func NewRow(width int) Row {
	if width <= 0 {
		panic(fmt.Sprintf("bitmat: invalid row width %d", width))
	}
	return Row{width: width, w: make([]uint64, (width+WordBits-1)/WordBits)}
}

// Width reports the number of bit positions (columns) in the row.
func (r Row) Width() int { return r.width }

// Clone returns an independent copy of r.
func (r Row) Clone() Row {
	c := Row{width: r.width, w: make([]uint64, len(r.w))}
	copy(c.w, r.w)
	return c
}

// Bit reports the value of bit i.
func (r Row) Bit(i int) bool {
	r.check(i)
	return r.w[i/WordBits]>>(uint(i)%WordBits)&1 == 1
}

// SetBit sets bit i to v.
func (r Row) SetBit(i int, v bool) {
	r.check(i)
	if v {
		r.w[i/WordBits] |= 1 << (uint(i) % WordBits)
	} else {
		r.w[i/WordBits] &^= 1 << (uint(i) % WordBits)
	}
}

func (r Row) check(i int) {
	if i < 0 || i >= r.width {
		panic(fmt.Sprintf("bitmat: bit index %d out of range [0,%d)", i, r.width))
	}
}

// Zero clears every bit of r in place.
func (r Row) Zero() {
	for i := range r.w {
		r.w[i] = 0
	}
}

// Fill sets every bit of r in place.
func (r Row) Fill() {
	for i := range r.w {
		r.w[i] = ^uint64(0)
	}
	r.trim()
}

// trim clears bits beyond width in the last word, preserving the invariant
// that unused high bits are zero.
func (r Row) trim() {
	rem := r.width % WordBits
	if rem != 0 {
		r.w[len(r.w)-1] &= (1 << uint(rem)) - 1
	}
}

// CopyFrom overwrites r with the contents of src. Widths must match.
func (r Row) CopyFrom(src Row) {
	r.mustMatch(src)
	copy(r.w, src.w)
}

func (r Row) mustMatch(o Row) {
	if r.width != o.width {
		panic(fmt.Sprintf("bitmat: width mismatch %d vs %d", r.width, o.width))
	}
}

// And stores a AND b into r (r may alias a or b).
func (r Row) And(a, b Row) {
	r.mustMatch(a)
	r.mustMatch(b)
	for i := range r.w {
		r.w[i] = a.w[i] & b.w[i]
	}
}

// Or stores a OR b into r.
func (r Row) Or(a, b Row) {
	r.mustMatch(a)
	r.mustMatch(b)
	for i := range r.w {
		r.w[i] = a.w[i] | b.w[i]
	}
}

// Xor stores a XOR b into r.
func (r Row) Xor(a, b Row) {
	r.mustMatch(a)
	r.mustMatch(b)
	for i := range r.w {
		r.w[i] = a.w[i] ^ b.w[i]
	}
}

// AndNot stores a AND NOT b into r.
func (r Row) AndNot(a, b Row) {
	r.mustMatch(a)
	r.mustMatch(b)
	for i := range r.w {
		r.w[i] = a.w[i] &^ b.w[i]
	}
}

// Not stores NOT a into r.
func (r Row) Not(a Row) {
	r.mustMatch(a)
	for i := range r.w {
		r.w[i] = ^a.w[i]
	}
	r.trim()
}

// Mux stores, per bit, (sel ? a : b) into r.
func (r Row) Mux(sel, a, b Row) {
	r.mustMatch(sel)
	r.mustMatch(a)
	r.mustMatch(b)
	for i := range r.w {
		r.w[i] = (sel.w[i] & a.w[i]) | (^sel.w[i] & b.w[i])
	}
	r.trim()
}

// ShiftLeft stores a shifted left (toward higher bit indices) by k into r,
// filling vacated low bits with zero. r must not alias a when k > 0 unless
// r == a, which is handled.
func (r Row) ShiftLeft(a Row, k int) {
	r.mustMatch(a)
	if k < 0 {
		r.ShiftRight(a, -k)
		return
	}
	if k >= r.width {
		r.Zero()
		return
	}
	wordShift, bitShift := k/WordBits, uint(k%WordBits)
	for i := len(r.w) - 1; i >= 0; i-- {
		var v uint64
		if i-wordShift >= 0 {
			v = a.w[i-wordShift] << bitShift
			if bitShift > 0 && i-wordShift-1 >= 0 {
				v |= a.w[i-wordShift-1] >> (WordBits - bitShift)
			}
		}
		r.w[i] = v
	}
	r.trim()
}

// ShiftRight stores a shifted right (toward lower bit indices) by k into r,
// filling vacated high bits with zero.
func (r Row) ShiftRight(a Row, k int) {
	r.mustMatch(a)
	if k < 0 {
		r.ShiftLeft(a, -k)
		return
	}
	if k >= r.width {
		r.Zero()
		return
	}
	wordShift, bitShift := k/WordBits, uint(k%WordBits)
	for i := range r.w {
		var v uint64
		if i+wordShift < len(a.w) {
			v = a.w[i+wordShift] >> bitShift
			if bitShift > 0 && i+wordShift+1 < len(a.w) {
				v |= a.w[i+wordShift+1] << (WordBits - bitShift)
			}
		}
		r.w[i] = v
	}
}

// PopCount reports the number of set bits.
func (r Row) PopCount() int {
	n := 0
	for _, w := range r.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (r Row) Any() bool {
	for _, w := range r.w {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether r and o hold identical bits.
func (r Row) Equal(o Row) bool {
	if r.width != o.width {
		return false
	}
	for i := range r.w {
		if r.w[i] != o.w[i] {
			return false
		}
	}
	return true
}

// String renders the row LSB-first as '0'/'1' characters, for debugging.
func (r Row) String() string {
	var b strings.Builder
	b.Grow(r.width)
	for i := 0; i < r.width; i++ {
		if r.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Matrix is a rows × cols bit matrix with row-granularity access, modeling
// the storage core of an SRAM sub-array (wordlines × bitlines).
type Matrix struct {
	rows, cols int
	data       []Row
}

// NewMatrix returns a zeroed rows × cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("bitmat: invalid matrix dims %dx%d", rows, cols))
	}
	m := &Matrix{rows: rows, cols: cols, data: make([]Row, rows)}
	for i := range m.data {
		m.data[i] = NewRow(cols)
	}
	return m
}

// Rows reports the number of wordlines.
func (m *Matrix) Rows() int { return m.rows }

// Cols reports the number of bitlines.
func (m *Matrix) Cols() int { return m.cols }

// Row returns the live Row for wordline i. Mutating the returned Row mutates
// the matrix; callers needing a snapshot should Clone it.
func (m *Matrix) Row(i int) Row {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("bitmat: row %d out of range [0,%d)", i, m.rows))
	}
	return m.data[i]
}

// WriteRow overwrites wordline i with src.
func (m *Matrix) WriteRow(i int, src Row) {
	m.Row(i).CopyFrom(src)
}

// WriteRowMasked overwrites only the columns of wordline i where mask bit is
// set, leaving other columns untouched (a masked SRAM write).
func (m *Matrix) WriteRowMasked(i int, src, mask Row) {
	dst := m.Row(i)
	dst.mustMatch(src)
	dst.mustMatch(mask)
	for w := range dst.w {
		dst.w[w] = (src.w[w] & mask.w[w]) | (dst.w[w] &^ mask.w[w])
	}
}

// Bit reports the bit at (row, col).
func (m *Matrix) Bit(row, col int) bool { return m.Row(row).Bit(col) }

// SetBit sets the bit at (row, col).
func (m *Matrix) SetBit(row, col int, v bool) { m.Row(row).SetBit(col, v) }

// Reset zeroes the whole matrix.
func (m *Matrix) Reset() {
	for _, r := range m.data {
		r.Zero()
	}
}

// groupWords checks the group-op contract and returns the per-word
// constants every group op is built from: lsb has a bit at the LSB column of
// each n-wide group within a word, and fill is the n-bit all-ones field.
// Groups must tile both the 64-bit storage word and the row, so no group
// ever straddles a word boundary or the end of the row.
func groupWords(width, n int) (lsb, fill uint64) {
	if n <= 0 || WordBits%n != 0 || width%n != 0 {
		panic(fmt.Sprintf("bitmat: group width %d must divide %d and the row width %d", n, WordBits, width))
	}
	fill = fieldMask(n)
	return ^uint64(0) / fill, fill
}

// fieldMask returns the n-bit all-ones field (all 64 bits when n is 64).
func fieldMask(n int) uint64 { return 1<<uint(n) - 1 }

// GroupPattern returns a Row holding the n-bit pattern pat in every n-wide
// column group: column g*n+j is bit j of pat.
func GroupPattern(width, n int, pat uint64) Row {
	lsb, fill := groupWords(width, n)
	r := NewRow(width)
	for i := range r.w {
		r.w[i] = (pat & fill) * lsb
	}
	r.trim()
	return r
}

// LSBMask returns a Row with a bit set at the least-significant column of
// every n-wide group (columns 0, n, 2n, ...).
func LSBMask(width, n int) Row { return GroupPattern(width, n, 1) }

// MSBMask returns a Row with a bit set at the most-significant column of
// every n-wide group (columns n-1, 2n-1, ...).
func MSBMask(width, n int) Row { return GroupPattern(width, n, 1<<uint(n-1)) }

// SpreadLSB copies the bit at each group's LSB column to every column of that
// group, storing the result into r (r may alias a). It implements "the mask
// latch of the group follows the LSB column" broadcast used by segment
// predication. Multiplying the isolated LSB bits by the group's all-ones
// field fills each group without carrying into the next.
func (r Row) SpreadLSB(a Row, n int) {
	r.mustMatch(a)
	lsb, fill := groupWords(r.width, n)
	for i := range r.w {
		r.w[i] = (a.w[i] & lsb) * fill
	}
}

// SpreadMSB copies the bit at each group's MSB column to every column of that
// group, storing the result into r (r may alias a).
func (r Row) SpreadMSB(a Row, n int) {
	r.mustMatch(a)
	lsb, fill := groupWords(r.width, n)
	for i := range r.w {
		r.w[i] = (a.w[i] >> uint(n-1) & lsb) * fill
	}
}

// GroupAdd evaluates an n-bit carry chain in every n-wide group: column c
// has propagate p and generate g, and each group's carry enters at its LSB
// column from cin (other cin columns are ignored). The sum p XOR carry-in is
// stored into r and each group's carry-out into cout at the group's LSB
// column. Any of the rows may alias except r and cout.
//
// Per word this is one SWAR add: with a = p|g and b = g, every column adds
// a+b ∈ {0, 1, 2} exactly as the ripple chain generates, propagates or kills
// a carry, for any p/g pair. Clearing the group MSB columns of both addends
// keeps a carry from crossing into the next group; the carries into each
// column are then the sum XOR both addends.
func (r Row) GroupAdd(cout, p, g, cin Row, n int) {
	r.mustMatch(cout)
	r.mustMatch(p)
	r.mustMatch(g)
	r.mustMatch(cin)
	lsb, _ := groupWords(r.width, n)
	msb := lsb << uint(n-1)
	for i := range r.w {
		pw, gw := p.w[i], g.w[i]
		a, b := (pw|gw)&^msb, gw&^msb
		c := (a + b + cin.w[i]&lsb) ^ a ^ b
		r.w[i] = pw ^ c
		cout.w[i] = (gw | pw&c) & msb >> uint(n-1)
	}
}

// ReadSegments reads a value stored transposed across segs consecutive rows
// starting at row: segment s (bits [s*n, (s+1)*n) of the result) is the
// n-column field at col of row row+s. It is one field read per row, and
// n*segs must not exceed 64.
func (m *Matrix) ReadSegments(row, col, n, segs int) uint64 {
	m.checkSegments(row, col, n, segs)
	i, off, mask := col/WordBits, uint(col%WordBits), fieldMask(n)
	var v uint64
	for s, r := range m.data[row : row+segs] {
		f := r.w[i] >> off
		if off+uint(n) > WordBits {
			f |= r.w[i+1] << (WordBits - off)
		}
		v |= f & mask << uint(s*n)
	}
	return v
}

// WriteSegments is the inverse of ReadSegments: it writes segment s of v to
// the n-column field at col of row row+s, leaving other columns untouched.
func (m *Matrix) WriteSegments(row, col, n, segs int, v uint64) {
	m.checkSegments(row, col, n, segs)
	i, off, mask := col/WordBits, uint(col%WordBits), fieldMask(n)
	for s, r := range m.data[row : row+segs] {
		f := v >> uint(s*n) & mask
		r.w[i] = r.w[i]&^(mask<<off) | f<<off
		if off+uint(n) > WordBits {
			sh := WordBits - off
			r.w[i+1] = r.w[i+1]&^(mask>>sh) | f>>sh
		}
	}
}

func (m *Matrix) checkSegments(row, col, n, segs int) {
	if n <= 0 || segs <= 0 || n*segs > WordBits || row < 0 || row+segs > m.rows || col < 0 || col+n > m.cols {
		panic(fmt.Sprintf("bitmat: %d segments of %d bits at (%d,%d) out of range for %dx%d",
			segs, n, row, col, m.rows, m.cols))
	}
}
