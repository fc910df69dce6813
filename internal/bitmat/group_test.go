package bitmat

import (
	"fmt"
	"strings"
	"testing"
)

// The per-bit routines below are the reference implementations the
// word-level group ops replaced. They touch one column at a time through the
// bounds-checked Bit/SetBit accessors, so they share no arithmetic with the
// code under test.

// spreadLSBRef copies each group's LSB column to the whole group.
func spreadLSBRef(r, a Row, n int) {
	tmp := a.Clone()
	for c := 0; c < r.width; c += n {
		v := tmp.Bit(c)
		for k := 0; k < n && c+k < r.width; k++ {
			r.SetBit(c+k, v)
		}
	}
}

// spreadMSBRef copies each group's MSB column to the whole group.
func spreadMSBRef(r, a Row, n int) {
	tmp := a.Clone()
	for c := 0; c < r.width; c += n {
		v := tmp.Bit(c + n - 1)
		for k := 0; k < n && c+k < r.width; k++ {
			r.SetBit(c+k, v)
		}
	}
}

// lsbMaskRef sets the LSB column of every group.
func lsbMaskRef(width, n int) Row {
	r := NewRow(width)
	for c := 0; c < width; c += n {
		r.SetBit(c, true)
	}
	return r
}

// msbMaskRef sets the MSB column of every group.
func msbMaskRef(width, n int) Row {
	r := NewRow(width)
	for c := n - 1; c < width; c += n {
		r.SetBit(c, true)
	}
	return r
}

// groupPatternRef writes bit j of pat to offset j of every group.
func groupPatternRef(width, n int, pat uint64) Row {
	r := NewRow(width)
	for c := 0; c < width; c++ {
		r.SetBit(c, pat>>uint(c%n)&1 == 1)
	}
	return r
}

// groupAddRef ripples the carry through each group one column at a time:
// sum = p XOR carry-in, carry-out = g OR (p AND carry-in).
func groupAddRef(sum, cout, p, g, cin Row, n int) {
	ps, gs, cs := p.Clone(), g.Clone(), cin.Clone()
	sum.Zero()
	cout.Zero()
	for base := 0; base < sum.width; base += n {
		c := cs.Bit(base)
		for j := 0; j < n; j++ {
			pj, gj := ps.Bit(base+j), gs.Bit(base+j)
			sum.SetBit(base+j, pj != c)
			c = gj || pj && c
		}
		cout.SetBit(base, c)
	}
}

// readSegmentsRef reads segs stacked n-column fields, one bit at a time.
func readSegmentsRef(m *Matrix, row, col, n, segs int) uint64 {
	var v uint64
	for k := 0; k < n*segs; k++ {
		if m.Bit(row+k/n, col+k%n) {
			v |= 1 << uint(k)
		}
	}
	return v
}

// writeSegmentsRef writes segs stacked n-column fields, one bit at a time.
func writeSegmentsRef(m *Matrix, row, col, n, segs int, v uint64) {
	for k := 0; k < n*segs; k++ {
		m.SetBit(row+k/n, col+k%n, v>>uint(k)&1 == 1)
	}
}

// ReadSegments is the per-element data port the range transfers replaced:
// it reads a value stored transposed across segs consecutive rows starting
// at row, segment s (bits [s*n, (s+1)*n) of the result) being the n-column
// field at col of row row+s. It is one field read per row, at any column,
// straddling a word boundary or not, and n*segs must not exceed 64.
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

// factors is every shipped segment-group width.
var factors = []int{1, 2, 4, 8, 16, 32}

// rowStream deals fuzz bytes out as words, then continues with a
// splitmix64 sequence so short inputs still produce dense rows.
type rowStream struct {
	data  []byte
	state uint64
}

func (s *rowStream) next() uint64 {
	if len(s.data) >= 8 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(s.data[i]) << (8 * i)
		}
		s.data = s.data[8:]
		return v
	}
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (s *rowStream) row(width int) Row {
	r := NewRow(width)
	for i := range r.w {
		r.w[i] = s.next()
	}
	r.trim()
	return r
}

// FuzzGroupOps holds every word-level group op equal to its per-bit oracle:
// both spreads (also in place), the SWAR carry chain over arbitrary p/g/cin
// words — p AND g set together included, a pair the stack never drives — with
// the sum aliasing an operand and the carry-out aliasing the carry-in, the
// group-pattern constant rows, transposed element transfers — stacked
// n-bit field reads and writes at any row and column base, straddling a
// word boundary or not — and the one-loop shifter μops and bit-line sense
// (checkShifterAndSense). Rows span one to four
// words, with a partial last word when the width is not a multiple of 64.
// The checked-in corpus under testdata/fuzz/FuzzGroupOps seeds each n.
func FuzzGroupOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, nSel uint8, col uint16, data []byte) {
		n := factors[int(nSel)%len(factors)]
		words := 1 + int(shape)%4
		width := words*WordBits - n*(int(shape/4)%(WordBits/n))
		src := &rowStream{data: data, state: uint64(shape)<<16 | uint64(nSel)<<8 | uint64(col)}
		a, p, g, cin := src.row(width), src.row(width), src.row(width), src.row(width)
		same := func(op string, got, want Row) {
			t.Helper()
			if !got.Equal(want) {
				t.Fatalf("%s (width %d, n %d):\n got %s\nwant %s", op, width, n, got, want)
			}
		}

		for _, sp := range []struct {
			name     string
			word     func(r, a Row, n int)
			perBitFn func(r, a Row, n int)
		}{
			{"SpreadLSB", Row.SpreadLSB, spreadLSBRef},
			{"SpreadMSB", Row.SpreadMSB, spreadMSBRef},
		} {
			want := NewRow(width)
			sp.perBitFn(want, a, n)
			got := g.Clone()
			sp.word(got, a, n)
			same(sp.name, got, want)
			in := a.Clone()
			sp.word(in, in, n)
			same(sp.name+" in place", in, want)
		}

		sumW, coutW := NewRow(width), NewRow(width)
		groupAddRef(sumW, coutW, p, g, cin, n)
		sum, cout := a.Clone(), a.Clone()
		sum.GroupAdd(cout, p, g, cin, n)
		same("GroupAdd sum", sum, sumW)
		same("GroupAdd cout", cout, coutW)
		sum, cout = p.Clone(), cin.Clone()
		sum.GroupAdd(cout, sum, g, cout, n)
		same("GroupAdd sum aliasing p", sum, sumW)
		same("GroupAdd cout aliasing cin", cout, coutW)
		sum = g.Clone()
		sum.GroupAdd(cout, p, sum, cin, n)
		same("GroupAdd sum aliasing g", sum, sumW)

		pat := src.next()
		same("GroupPattern", GroupPattern(width, n, pat), groupPatternRef(width, n, pat))
		same("LSBMask", LSBMask(width, n), lsbMaskRef(width, n))
		same("MSBMask", MSBMask(width, n), msbMaskRef(width, n))

		for _, fn := range factors {
			if fn > width {
				continue
			}
			segs := 1 + int(nSel>>3)%(WordBits/fn)
			row, c := int(col>>12)%3, int(col)%(width-fn+1)
			got, want := NewMatrix(segs+2, width), NewMatrix(segs+2, width)
			for i := range got.data {
				got.data[i] = src.row(width)
				want.data[i].CopyFrom(got.data[i])
			}
			if g, w := got.ReadSegments(row, c, fn, segs), readSegmentsRef(want, row, c, fn, segs); g != w {
				t.Fatalf("ReadSegments(%d, %d, %d, %d) of width %d = %#x, want %#x", row, c, fn, segs, width, g, w)
			}
			v := src.next()
			got.WriteSegments(row, c, fn, segs, v)
			writeSegmentsRef(want, row, c, fn, segs, v)
			for i := range got.data {
				same(fmt.Sprintf("WriteSegments(%d, %d, %d, %d) row %d", row, c, fn, segs, i), got.data[i], want.data[i])
			}
		}

		checkShifterAndSense(t, src, width, n)
	})
}

// TestGroupOpsRejectPartialGroups pins the one contract every group op
// shares: n must divide both the 64-bit word and the row width, so a group
// never straddles a word or runs off the end of the row.
func TestGroupOpsRejectPartialGroups(t *testing.T) {
	ops := map[string]func(width, n int){
		"SpreadLSB":    func(width, n int) { NewRow(width).SpreadLSB(NewRow(width), n) },
		"SpreadMSB":    func(width, n int) { NewRow(width).SpreadMSB(NewRow(width), n) },
		"GroupAdd":     func(width, n int) { r := NewRow(width); r.GroupAdd(NewRow(width), r, r, r, n) },
		"GroupPattern": func(width, n int) { GroupPattern(width, n, 1) },
		"ShiftGroupsLeft": func(width, n int) {
			r := NewRow(width)
			r.ShiftGroupsLeft(NewRow(width), r, n, true)
		},
		"ShiftGroupsRight": func(width, n int) {
			r := NewRow(width)
			r.ShiftGroupsRight(NewRow(width), r, n, true)
		},
		"RotateGroupsLeft":     func(width, n int) { r := NewRow(width); r.RotateGroupsLeft(r, n, true) },
		"RotateGroupsRight":    func(width, n int) { r := NewRow(width); r.RotateGroupsRight(r, n, true) },
		"ShiftGroupsRightZero": func(width, n int) { NewRow(width).ShiftGroupsRightZero(n) },
	}
	for name, op := range ops {
		for _, c := range []struct{ width, n int }{
			{12, 8},  // partial last group
			{96, 3},  // 3 does not divide 64
			{48, 48}, // divides the width, not the word
			{64, 0},
		} {
			got := func() (p any) {
				defer func() { p = recover() }()
				op(c.width, c.n)
				return nil
			}()
			msg, _ := got.(string)
			if !strings.HasPrefix(msg, "bitmat: group width ") {
				t.Errorf("%s(width %d, n %d) panicked with %v, want the group-width contract", name, c.width, c.n, got)
			}
		}
	}
}

func TestSegmentsOutOfRangePanics(t *testing.T) {
	m := NewMatrix(8, 100)
	for _, c := range []struct{ row, col, n, segs int }{
		{0, -1, 4, 1}, {0, 97, 4, 1}, {0, 0, 0, 1}, {0, 0, 4, 0},
		{0, 0, 65, 1}, {0, 0, 16, 5}, {-1, 0, 4, 2}, {7, 0, 4, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReadSegments%v on 8x100 did not panic", c)
				}
			}()
			m.ReadSegments(c.row, c.col, c.n, c.segs)
		}()
	}
}
