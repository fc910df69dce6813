package eve

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// TestMachineFullSurface drives every facade intrinsic once on a DV machine
// (fast) and verifies the functional results flow through.
func TestMachineFullSurface(t *testing.T) {
	m := NewMachine(O3DV, 0)
	n := m.SetVL(8)
	if n != 8 {
		t.Fatalf("SetVL granted %d", n)
	}
	base := m.AllocWords(64)
	for i := 0; i < 16; i++ {
		m.WriteWord(base+uint64(4*i), uint32(i+1))
	}
	m.Load(1, base)
	m.LoadStride(2, base, 8)
	m.VId(3)
	m.SllVX(3, 3, 2)
	m.LoadIdx(4, base, 3)
	m.Add(5, 1, 2)
	m.Sub(5, 5, 1)
	m.And(5, 5, 5)
	m.Or(5, 5, 5)
	m.Xor(6, 5, 5)
	m.Mul(6, 1, 2)
	m.MulH(6, 1, 2)
	m.Macc(6, 1, 2)
	m.Div(6, 2, 1)
	m.Min(7, 1, 2)
	m.Max(7, 1, 2)
	m.Sll(7, 1, 3)
	m.Srl(7, 1, 3)
	m.AddVX(8, 1, 5)
	m.SubVX(8, 8, 1)
	m.RSubVX(8, 8, 100)
	m.AndVX(8, 8, 0xFF)
	m.OrVX(8, 8, 1)
	m.XorVX(8, 8, 2)
	m.MulVX(8, 1, 3)
	m.MaccVX(8, 1, 2)
	m.MaxVX(8, 8, 3)
	m.SrlVX(8, 8, 1)
	m.SraVX(8, 8, 1)
	m.MSeq(0, 1, 2)
	m.MSne(0, 1, 2)
	m.MSlt(0, 1, 2)
	m.MSltU(0, 1, 2)
	m.MSltVX(0, 1, 3)
	m.MSgtVX(0, 1, 3)
	m.MSltUVX(0, 1, 3)
	m.MSgtUVX(0, 1, 3)
	m.MSeqVX(0, 1, 3)
	m.Merge(9, 1, 2)
	m.SetMasked(true)
	m.Add(9, 1, 2)
	m.SetMasked(false)
	m.Mv(10, 9)
	m.MvVX(11, 5)
	m.MvSX(11, 9)
	_ = m.MvXS(11)
	m.RedSum(12, 1, 11)
	m.RedMax(12, 1, 11)
	m.RedMin(12, 1, 11)
	m.Slide1Up(13, 1, 0)
	m.Slide1Down(13, 1, 0)
	m.RGather(14, 1, 3)
	m.ScalarOps(3)
	m.ScalarMuls(1)
	_ = m.ScalarLoad(base)
	m.ScalarStore(base, 1)
	m.Store(5, base)
	m.StoreStride(5, base, 8)
	m.StoreIdx(5, base, 3)
	m.Fence()
	if m.System() != O3DV || m.HWVL() != 64 {
		t.Fatal("machine metadata wrong")
	}
	res := m.Finish()
	if res.Cycles <= 0 || res.DynamicInstrs == 0 {
		t.Fatalf("implausible result %+v", res)
	}
	if len(m.VReg(5)) != 64 {
		t.Fatal("VReg length wrong")
	}
}

func TestMachineIVAndScalar(t *testing.T) {
	// IV machine end-to-end.
	m := NewMachine(O3IV, 0)
	base := m.AllocWords(16)
	m.SetVL(16)
	m.Load(1, base)
	m.AddVX(1, 1, 1)
	m.Store(1, base)
	if r := m.Finish(); r.Cycles <= 0 {
		t.Fatal("IV machine produced no time")
	}
	// Scalar-only machine accepts scalar traffic.
	s := NewMachine(IO, 0)
	a := s.AllocWords(4)
	s.ScalarStore(a, 9)
	if s.ScalarLoad(a) != 9 {
		t.Fatal("scalar round trip failed")
	}
	s.ScalarOps(10)
	s.ScalarMuls(2)
	if r := s.Finish(); r.Cycles <= 0 {
		t.Fatal("scalar machine produced no time")
	}
}

// TestMachineMatchesRun drives every small kernel through a Machine's
// builder on every system and requires exactly what sim.Run reports for the
// same pair: cycles, instruction mix, Fig 7 breakdown and the stats
// snapshot. A Machine is the same assembled system as a benchmark run — the
// Table III machine with the EVE-16/32 clock penalty — and differs only in
// spawning EVE at the first vector instruction instead of at cycle 0.
func TestMachineMatchesRun(t *testing.T) {
	for _, k := range workloads.Small() {
		for _, s := range Systems() {
			k, s := k, s
			t.Run(k.Name+"/"+s.Name(), func(t *testing.T) {
				t.Parallel()
				run := sim.Run(s.config(), k)
				if run.Err != nil {
					t.Fatal(run.Err)
				}
				m := NewMachine(s, 64<<20)
				if err := k.Run(m.b, s != IO && s != O3)(); err != nil {
					t.Fatal(err)
				}
				mix := m.b.Mix()
				got := m.Finish()
				want := fromSimResult(run)
				if got.Cycles != want.Cycles {
					t.Errorf("cycles = %d, sim.Run %d", got.Cycles, want.Cycles)
				}
				if mix != run.Mix {
					t.Errorf("mix = %+v, sim.Run %+v", mix, run.Mix)
				}
				if !reflect.DeepEqual(got.Breakdown, want.Breakdown) {
					t.Errorf("breakdown = %v, sim.Run %v", got.Breakdown, want.Breakdown)
				}
				if !reflect.DeepEqual(got.Snapshot, want.Snapshot) {
					t.Errorf("stats snapshot differs from sim.Run:\n got  %s\n want %s",
						got.Snapshot.Summary(), want.Snapshot.Summary())
				}
			})
		}
	}
}
