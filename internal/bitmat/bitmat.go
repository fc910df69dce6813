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
	r := NewRow(width)
	r.SetGroupPattern(n, pat)
	return r
}

// SetGroupPattern overwrites r in place with GroupPattern(r.Width(), n, pat).
func (r Row) SetGroupPattern(n int, pat uint64) {
	lsb, fill := groupWords(r.width, n)
	for i := range r.w {
		r.w[i] = (pat & fill) * lsb
	}
	r.trim()
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

// ShiftGroupsLeft is the constant shifter's conditional one-bit left shift
// (§III-C): within every enabled group the columns of r move one toward the
// MSB, the bit leaving the MSB column is parked in spare at the group's LSB
// column, and spare's LSB-column bit enters at the LSB column. When masked,
// a group is enabled by mask's bit at its LSB column; otherwise every group
// is. Disabled groups keep both r and spare.
//
// Each word is exact on its own: the bit a row-wide shift would carry across
// a word boundary lands on a group LSB column, which the in-group mask clears.
func (r Row) ShiftGroupsLeft(spare, mask Row, n int, masked bool) {
	r.mustMatch(spare)
	r.mustMatch(mask)
	lsb, fill := groupWords(r.width, n)
	for i, c := range r.w {
		cond := groupCond(mask.w[i], lsb, fill, masked)
		out := c >> uint(n-1) & lsb
		sh := c<<1&^lsb | spare.w[i]&lsb
		r.w[i] = cond&sh | c&^cond
		spare.w[i] = spare.w[i]&^(cond&lsb) | out&cond
	}
}

// ShiftGroupsRight is the mirror of ShiftGroupsLeft: the bit leaving each
// enabled group's LSB column is parked in spare and spare's bit enters at
// the MSB column. The bit a row-wide shift would carry across a word
// boundary lands on a group MSB column, which the in-group mask clears.
func (r Row) ShiftGroupsRight(spare, mask Row, n int, masked bool) {
	r.mustMatch(spare)
	r.mustMatch(mask)
	lsb, fill := groupWords(r.width, n)
	msb := lsb << uint(n-1)
	for i, c := range r.w {
		cond := groupCond(mask.w[i], lsb, fill, masked)
		out := c & lsb
		sh := c>>1&^msb | (spare.w[i]&lsb)<<uint(n-1)
		r.w[i] = cond&sh | c&^cond
		spare.w[i] = spare.w[i]&^(cond&lsb) | out&cond
	}
}

// RotateGroupsLeft rotates r left by one column within every enabled group
// (the MSB column wraps to the group's own LSB column); enablement is as for
// ShiftGroupsLeft.
func (r Row) RotateGroupsLeft(mask Row, n int, masked bool) {
	r.mustMatch(mask)
	lsb, fill := groupWords(r.width, n)
	for i, c := range r.w {
		cond := groupCond(mask.w[i], lsb, fill, masked)
		sh := c<<1&^lsb | c>>uint(n-1)&lsb
		r.w[i] = cond&sh | c&^cond
	}
}

// RotateGroupsRight rotates r right by one column within every enabled
// group (the LSB column wraps to the group's own MSB column).
func (r Row) RotateGroupsRight(mask Row, n int, masked bool) {
	r.mustMatch(mask)
	lsb, fill := groupWords(r.width, n)
	msb := lsb << uint(n-1)
	for i, c := range r.w {
		cond := groupCond(mask.w[i], lsb, fill, masked)
		sh := c>>1&^msb | (c&lsb)<<uint(n-1)
		r.w[i] = cond&sh | c&^cond
	}
}

// ShiftGroupsRightZero shifts r right by one column within every group,
// zero filling each MSB column (the XRegister's m_shft).
func (r Row) ShiftGroupsRightZero(n int) {
	lsb, _ := groupWords(r.width, n)
	msb := lsb << uint(n-1)
	for i, c := range r.w {
		r.w[i] = c >> 1 &^ msb
	}
}

// groupCond is the per-column enable of a conditional group shift: every
// column when unmasked, else each group's LSB-column mask bit spread over
// the group.
func groupCond(mask, lsb, fill uint64, masked bool) uint64 {
	if !masked {
		return ^uint64(0)
	}
	return (mask & lsb) * fill
}

// SenseBitLines computes, in one pass, the single-ended sense outputs of
// activating rows a and b together: and = a AND b, or = a OR b, with the
// columns set in stuck0 forced to 0 and those set in stuck1 forced to 1, and
// nand and nor as their complements. The four outputs must be distinct rows.
func SenseBitLines(and, nand, or, nor, a, b, stuck0, stuck1 Row) {
	and.mustMatch(nand)
	and.mustMatch(or)
	and.mustMatch(nor)
	and.mustMatch(a)
	and.mustMatch(b)
	and.mustMatch(stuck0)
	and.mustMatch(stuck1)
	// Equal-length reslices let the compiler drop the per-word bounds checks.
	n := len(and.w)
	aw, bw, s0, s1 := a.w[:n], b.w[:n], stuck0.w[:n], stuck1.w[:n]
	andW, nandW, orW, norW := and.w[:n], nand.w[:n], or.w[:n], nor.w[:n]
	for i, x := range aw {
		y := bw[i]
		p := x&y&^s0[i] | s1[i]
		q := (x|y)&^s0[i] | s1[i]
		andW[i], nandW[i], orW[i], norW[i] = p, ^p, q, ^q
	}
	nand.trim()
	nor.trim()
}

// CopyColumnsFrom overwrites columns [col, width) of r with src's, leaving
// columns below col untouched: a masked first word, then a word copy.
func (r Row) CopyColumnsFrom(src Row, col int) {
	r.mustMatch(src)
	if col < 0 || col > r.width {
		panic(fmt.Sprintf("bitmat: column %d out of range [0,%d]", col, r.width))
	}
	i := col / WordBits
	if off := uint(col % WordBits); off != 0 {
		keep := uint64(1)<<off - 1
		r.w[i] = r.w[i]&keep | src.w[i]&^keep
		i++
	}
	copy(r.w[i:], src.w[i:])
}

// ReadElements reads len(dst) consecutive 32-bit elements, starting at
// element first, of a register stored transposed across the 32/n rows
// starting at row: element e occupies the n-column group e, and its segment
// s (bits [s*n, (s+1)*n)) is that group's field in row row+s. It walks each
// row once, extracting every field a storage word holds; n divides 32, so a
// field never straddles a word.
func (m *Matrix) ReadElements(row, n, first int, dst []uint32) {
	segs := m.checkElements(row, n, first, len(dst))
	clear(dst)
	mask := fieldMask(n)
	for s, r := range m.data[row : row+segs] {
		sh := uint(s * n)
		i, off := first*n/WordBits, first*n%WordBits
		for e := 0; e < len(dst); i, off = i+1, 0 {
			w := r.w[i] >> uint(off)
			k := min(len(dst)-e, (WordBits-off)/n)
			d := dst[e : e+k]
			for j := range d {
				d[j] |= uint32(w&mask) << sh
				w >>= uint(n)
			}
			e += k
		}
	}
}

// WriteElements is the inverse of ReadElements: it writes src as
// consecutive elements starting at element first, leaving the other column
// groups untouched. Each storage word is written once, with the fields it
// holds assembled first.
func (m *Matrix) WriteElements(row, n, first int, src []uint32) {
	segs := m.checkElements(row, n, first, len(src))
	mask := fieldMask(n)
	for s, r := range m.data[row : row+segs] {
		sh := uint(s * n)
		i, off := first*n/WordBits, first*n%WordBits
		for e := 0; e < len(src); i, off = i+1, 0 {
			k := min(len(src)-e, (WordBits-off)/n)
			var v uint64
			for j := e + k - 1; j >= e; j-- {
				v = v<<uint(n) | uint64(src[j]>>sh)&mask
			}
			span := fieldMask(k*n) << uint(off)
			r.w[i] = r.w[i]&^span | v<<uint(off)
			e += k
		}
	}
}

// checkElements validates a run of count elements from element first of the
// register whose segment 0 is row, and returns its segment count 32/n.
func (m *Matrix) checkElements(row, n, first, count int) int {
	if n <= 0 || 32%n != 0 || row < 0 || row+32/n > m.rows || first < 0 || count < 0 || (first+count)*n > m.cols {
		panic(fmt.Sprintf("bitmat: %d elements of %d-bit segments from element %d at row %d out of range for %dx%d",
			count, n, first, row, m.rows, m.cols))
	}
	return 32 / n
}
