// Benchmarks regenerating each table and figure of the paper's evaluation
// plus ablations over the design knobs DESIGN.md calls out (the ablations
// that need a custom EVE engine or memory system live in internal/sim).
// Reduced-size workloads keep a full `go test -bench=. -benchmem` run in
// minutes; the paper-scale sweep is `go run ./cmd/eve-figures`.
//
// Custom metrics: `cycles` is the simulated run time, `speedup-vs-IO` and
// `speedup-vs-IV` are the figures' y-axes, `vmu-stall-%` is Fig 8's metric.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/analytic"
	"repro/internal/bitmat"
	"repro/internal/circuits"
	"repro/internal/eve"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/uop"
	"repro/internal/uprog"
	"repro/internal/vreg"
	"repro/internal/workloads"
)

// benchKernels returns reduced-size kernels that still show each kernel's
// memory character.
func benchKernels() []*workloads.Kernel {
	return []*workloads.Kernel{
		workloads.NewVVAdd(1 << 13),
		workloads.NewMMult(16, 16, 512),
		workloads.NewKMeans(1024, 16, 4),
		workloads.NewPathfinder(6, 1<<12),
		workloads.NewJacobi2D(96, 2),
		workloads.NewBackprop(4096, 16),
		workloads.NewSW(160),
	}
}

func reportResult(b *testing.B, r sim.Result, ioCycles int64) {
	b.Helper()
	if r.Err != nil {
		b.Fatalf("validation: %v", r.Err)
	}
	b.ReportMetric(float64(r.Cycles), "cycles")
	if ioCycles > 0 {
		b.ReportMetric(float64(ioCycles)/float64(r.Cycles), "speedup-vs-IO")
	}
}

// BenchmarkFig1Layout regenerates Fig 1's geometry: element capacity and
// in-situ ALU counts per parallelization factor.
func BenchmarkFig1Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range analytic.Factors {
			g := vreg.Standard(n)
			_ = g.ElementsPerArray()
			_ = g.InSituALUs()
			_ = g.Placement()
		}
	}
	b.ReportMetric(float64(vreg.Standard(4).InSituALUs()), "alus-at-pf4")
}

// BenchmarkFig2 regenerates Fig 2: the latency/throughput sweep measured
// from the real micro-programs.
func BenchmarkFig2(b *testing.B) {
	var rows []analytic.Fig2Row
	for i := 0; i < b.N; i++ {
		rows = analytic.Fig2()
	}
	for _, r := range rows {
		if r.N == 4 {
			b.ReportMetric(r.AddThpN, "peak-add-throughput")
		}
		if r.N == 1 {
			b.ReportMetric(float64(r.MulLat), "bit-serial-mul-cycles")
		}
	}
}

// BenchmarkTableII_MicroPrograms measures the micro-program ROM: cycles per
// macro-operation per parallelization factor, executed on the bit-level
// circuit model.
func BenchmarkTableII_MicroPrograms(b *testing.B) {
	for _, n := range analytic.Factors {
		n := n
		b.Run(fmt.Sprintf("EVE-%d", n), func(b *testing.B) {
			m := uprog.NewMachine(n, 4)
			add := uprog.Add(m.Layout, 3, 1, 2, false)
			mul := uprog.Mul(m.Layout, 3, 1, 2, false, false)
			m.StoreElement(1, 0, 12345)
			m.StoreElement(2, 0, 678)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Run(add, nil)
				m.Run(mul, nil)
			}
			b.ReportMetric(float64(m.CountCycles(add)), "add-uop-cycles")
			b.ReportMetric(float64(m.CountCycles(mul)), "mul-uop-cycles")
		})
	}
}

// BenchmarkAreaModel regenerates the §VI circuits evaluation.
func BenchmarkAreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, n := range analytic.Factors {
			_ = analytic.TotalOverhead(n)
			_ = analytic.CycleTimeNS(n)
		}
	}
	b.ReportMetric(100*analytic.TotalOverhead(8), "eve8-area-overhead-%")
}

// BenchmarkFig6 regenerates the speedup figure: every kernel on every
// system (reduced inputs).
func BenchmarkFig6(b *testing.B) {
	for _, k := range benchKernels() {
		k := k
		io := sim.Run(sim.Config{Kind: sim.SysIO}, k)
		for _, s := range sim.AllSystems()[1:] {
			s := s
			b.Run(k.Name+"/"+s.Name(), func(b *testing.B) {
				var r sim.Result
				for i := 0; i < b.N; i++ {
					r = sim.Run(s, k)
				}
				reportResult(b, r, io.Cycles)
			})
		}
	}
}

// BenchmarkSweepWorkers measures the parallel sweep engine end to end on
// the full reduced-size (kernel, system) matrix at several pool widths.
// workers-1 is the serial baseline; the wall-clock ratio against it is the
// sweep speedup EXPERIMENTS.md records (≈ min(workers, cores) on multicore
// hosts, since every cell is independent CPU-bound work).
func BenchmarkSweepWorkers(b *testing.B) {
	kernels := benchKernels()
	systems := sim.AllSystems()
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sweep.Matrix(systems, kernels, sweep.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(kernels)*len(systems)), "cells/op")
		})
	}
}

// BenchmarkTable4 regenerates the characterization columns: speedups over
// O3+IV for DV and the EVE designs (geomean kernels).
func BenchmarkTable4(b *testing.B) {
	for _, k := range benchKernels() {
		k := k
		if !k.InGeomean() {
			continue
		}
		iv := sim.Run(sim.Config{Kind: sim.SysO3IV}, k)
		for _, n := range []int{1, 8, 32} {
			n := n
			b.Run(fmt.Sprintf("%s/E-%d-vs-IV", k.Name, n), func(b *testing.B) {
				var r sim.Result
				for i := 0; i < b.N; i++ {
					r = sim.Run(sim.Config{Kind: sim.SysO3EVE, N: n}, k)
				}
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				b.ReportMetric(float64(r.Cycles), "cycles")
				b.ReportMetric(float64(iv.Cycles)/float64(r.Cycles), "speedup-vs-IV")
			})
		}
	}
}

// BenchmarkFig7 regenerates the execution breakdown: busy share per EVE
// design on the compute-bound kernel (the §VII-B utilization curve).
func BenchmarkFig7(b *testing.B) {
	k := workloads.NewMMult(16, 16, 512)
	for _, n := range analytic.Factors {
		n := n
		b.Run(fmt.Sprintf("mmult/EVE-%d", n), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(sim.Config{Kind: sim.SysO3EVE, N: n}, k)
			}
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			bd := metrics.Breakdown(r.Stats)
			b.ReportMetric(100*float64(bd[eve.Busy.String()])/float64(metrics.Total(bd)), "busy-%")
		})
	}
}

// BenchmarkFig8 regenerates the VMU cache-induced stall metric on the
// MSHR-bound kernel.
func BenchmarkFig8(b *testing.B) {
	k := workloads.NewBackprop(1<<15, 16)
	for _, n := range []int{1, 4, 8, 32} {
		n := n
		b.Run(fmt.Sprintf("backprop/EVE-%d", n), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(sim.Config{Kind: sim.SysO3EVE, N: n}, k)
			}
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			b.ReportMetric(100*metrics.VMUStall(r.Stats), "vmu-stall-%")
		})
	}
}

// BenchmarkAblationMSHR sweeps the LLC MSHR count on the giant-stride kernel
// — the paper's "future work" knob for very long vector machines (§IX).
func BenchmarkAblationMSHR(b *testing.B) {
	k := workloads.NewBackprop(1<<15, 16)
	for _, mshrs := range []int{8, 16, 32, 64, 128} {
		mshrs := mshrs
		b.Run(fmt.Sprintf("backprop/EVE-8/llc-mshrs-%d", mshrs), func(b *testing.B) {
			llc := mem.LLCConfig
			llc.MSHRs = mshrs
			cfg := sim.Config{Kind: sim.SysO3EVE, N: 8, Mem: &sim.MemParams{LLC: llc}}
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(cfg, k)
			}
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			b.ReportMetric(float64(r.Cycles), "cycles")
			b.ReportMetric(100*metrics.VMUStall(r.Stats), "vmu-stall-%")
		})
	}
}

// BenchmarkAblationSpawn measures the §V-E reconfiguration cost as a
// function of how much dirty data the released ways hold.
func BenchmarkAblationSpawn(b *testing.B) {
	for _, dirtyPct := range []int{0, 25, 50, 100} {
		dirtyPct := dirtyPct
		b.Run(fmt.Sprintf("dirty-%d%%", dirtyPct), func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				h := mem.NewHierarchy()
				nsets := uint64(mem.L2Config.SizeBytes / (mem.LineBytes * mem.L2Config.Ways))
				for s := uint64(0); s < nsets; s++ {
					for w := 0; w < mem.L2Config.Ways; w++ {
						dirty := int(s*uint64(mem.L2Config.Ways)+uint64(w))%100 < dirtyPct
						h.L2.Access((s+uint64(w)*nsets)*mem.LineBytes, dirty, int64(s))
					}
				}
				cost = h.SpawnEVE()
			}
			b.ReportMetric(float64(cost), "spawn-cycles")
		})
	}
}

// BenchmarkSimRunProbeOff is the probe layer's zero-overhead baseline: the
// plain sim.Run fast path with no tracer and no registry snapshot consumers.
// BenchmarkSimRunTracedNil must match it — RunTraced(nil) walks the same
// nil-emitter branches — so any regression here means probe checks leaked
// into the hot loop (simulator engineering, not paper data).
func BenchmarkSimRunProbeOff(b *testing.B) {
	k := workloads.NewVVAdd(1 << 13)
	cfg := sim.Config{Kind: sim.SysO3EVE, N: 8}
	var r sim.Result
	for i := 0; i < b.N; i++ {
		r = sim.Run(cfg, k)
	}
	if r.Err != nil {
		b.Fatal(r.Err)
	}
	b.ReportMetric(float64(r.Cycles), "cycles")
}

// BenchmarkSimReplay replays BenchmarkSimRunProbeOff's cell from a stream
// recorded once outside the loop: the timing models alone, fed from the
// byte log, with no workload inputs built and no functional execution. The
// ns/op and allocs/op gap to BenchmarkSimRunProbeOff is what a campaign
// saves on each cell that shares a recorded stream.
func BenchmarkSimReplay(b *testing.B) {
	k := workloads.NewVVAdd(1 << 13)
	cfg := sim.Config{Kind: sim.SysO3EVE, N: 8}
	_, st := sim.Record(cfg, k, nil, 4<<20)
	if st == nil {
		b.Fatal("no stream recorded")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var r sim.Result
	for i := 0; i < b.N; i++ {
		r = sim.Replay(cfg, st)
	}
	if r.Err != nil {
		b.Fatal(r.Err)
	}
	b.ReportMetric(float64(r.Cycles), "cycles")
	b.ReportMetric(float64(len(st.Bytes())), "stream_bytes")
}

// BenchmarkSimRunTracedNil measures RunTraced with a nil tracer: the
// disabled-emitter path plus the end-of-run checksum. Compare against
// BenchmarkSimRunProbeOff to bound the cost of having probes compiled in.
func BenchmarkSimRunTracedNil(b *testing.B) {
	k := workloads.NewVVAdd(1 << 13)
	cfg := sim.Config{Kind: sim.SysO3EVE, N: 8}
	var r sim.Result
	for i := 0; i < b.N; i++ {
		r = sim.RunTraced(cfg, k, nil)
	}
	if r.Err != nil {
		b.Fatal(r.Err)
	}
	b.ReportMetric(float64(r.Cycles), "cycles")
}

// BenchmarkSimRunIntervals measures sim.Run with interval sampling on (a
// window that captures a handful of samples per run). The delta against
// BenchmarkSimRunProbeOff is the whole price of the time axis — the nil-
// sampler fast path itself must not move, which is the probe-off/interval
// pair CI and the identity tests pin.
func BenchmarkSimRunIntervals(b *testing.B) {
	k := workloads.NewVVAdd(1 << 13)
	cfg := sim.Config{Kind: sim.SysO3EVE, N: 8, Interval: 512}
	var r sim.Result
	for i := 0; i < b.N; i++ {
		r = sim.Run(cfg, k)
	}
	if r.Err != nil {
		b.Fatal(r.Err)
	}
	b.ReportMetric(float64(r.Cycles), "cycles")
	b.ReportMetric(float64(len(r.Intervals.Samples)), "windows")
}

// BenchmarkMemoryHierarchy measures the raw simulator throughput of the
// timed cache model (simulator engineering, not paper data).
func BenchmarkMemoryHierarchy(b *testing.B) {
	h := mem.NewHierarchy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CoreAccess(uint64(i*64%(1<<22)), i%7 == 0, int64(i))
	}
}

// BenchmarkBitLevelExecution measures the raw simulator throughput of the
// circuit-accurate micro-program executor at every parallelization factor:
// an add (the carry chain), a multiply (XRegister walks and mask spreads per
// multiplier bit), a v0-masked signed max (LSB and MSB mask spreads) and an
// arithmetic right shift by 5 (constant shifter and spare shifter passes;
// 5 is not a multiple of n, so the partial segment is sign-filled from
// data_in), each over 64 elements. Two data-port sub-benchmarks move whole
// registers: a 64-element read and write, and the tail snapshot and restore
// around a partial-VL instruction (VL 33, so the tail starts mid-word).
// Last, faults.Datapath.Exec runs a vmacc.vv at EVE-8 with hardware VL 1024
// at each VL a strip-mined kernel uses: the micro-program runs over the
// instruction's VL columns only.
func BenchmarkBitLevelExecution(b *testing.B) {
	const elems, sraBy = 64, 5
	progs := []struct {
		name string
		gen  func(l uprog.Layout) *uop.Program
	}{
		{"add", func(l uprog.Layout) *uop.Program { return uprog.Add(l, 3, 1, 2, false) }},
		{"mul", func(l uprog.Layout) *uop.Program { return uprog.Mul(l, 3, 1, 2, false, false) }},
		{"masked-max", func(l uprog.Layout) *uop.Program { return uprog.MinMax(l, true, true, 3, 1, 2, true) }},
		{"sra-imm", func(l uprog.Layout) *uop.Program { return uprog.ShiftImm(l, uprog.ShSRA, 3, 1, sraBy, false) }},
	}
	machine := func(n int) *uprog.Machine {
		m := uprog.NewMachine(n, elems)
		for e := 0; e < elems; e++ {
			m.StoreElement(0, e, uint32(e%2))
			m.StoreElement(1, e, uint32(e*3))
			m.StoreElement(2, e, uint32(e*5)-100)
		}
		return m
	}
	for _, n := range analytic.Factors {
		for _, pr := range progs {
			b.Run(fmt.Sprintf("EVE-%d/%s", n, pr.name), func(b *testing.B) {
				m := machine(n)
				p := pr.gen(m.Layout)
				// Only the SRA reads data_in; the other programs ignore it.
				var env *circuits.Env
				if sraBy%n != 0 {
					env = &circuits.Env{ExtRows: []bitmat.Row{uprog.TopBitsRow(m.Layout, m.Stack.Array().Cols(), sraBy%n)}}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Run(p, env)
				}
			})
		}
		b.Run(fmt.Sprintf("EVE-%d/register-transfer", n), func(b *testing.B) {
			m := machine(n)
			buf := make([]uint32, elems)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.LoadElements(1, 0, buf)
				m.StoreElements(3, 0, buf)
			}
		})
		b.Run(fmt.Sprintf("EVE-%d/tail-save-restore", n), func(b *testing.B) {
			m := machine(n)
			snap := make([]bitmat.Row, m.Layout.Segs)
			for i := range snap {
				snap[i] = bitmat.NewRow(m.Stack.Array().Cols())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.SaveRegister(3, snap)
				m.RestoreTail(3, elems/2+1, snap)
			}
		})
	}
	for _, vl := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("EVE-8/datapath-vmacc.vv/vl=%d", vl), func(b *testing.B) {
			const n, hwvl = 8, 1024
			dp := faults.NewDatapath(n, hwvl, 0)
			golden := make([]uint32, hwvl)
			for r := 1; r <= 3; r++ {
				for i := range golden {
					golden[i] = uint32(i * r)
				}
				dp.Exec(&isa.Instr{Op: isa.OpLoad, Vd: r, VL: hwvl}, golden)
			}
			in := &isa.Instr{Op: isa.OpMacc, Kind: isa.KindVV, Vd: 3, Vs1: 1, Vs2: 2, VL: vl}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dp.Exec(in, golden)
			}
		})
	}
}

// BenchmarkFutureWorkFP32 explores the paper's §IX closing question: does
// bit-hybrid execution balance latency and throughput for floating point?
// Binary32 SAXPY runs as softfloat sequences of integer vector instructions
// across every EVE design point.
func BenchmarkFutureWorkFP32(b *testing.B) {
	k := workloads.NewFPSaxpy(1 << 12)
	io := sim.Run(sim.Config{Kind: sim.SysIO}, k)
	for _, n := range analytic.Factors {
		n := n
		b.Run(fmt.Sprintf("fp-saxpy/EVE-%d", n), func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.Run(sim.Config{Kind: sim.SysO3EVE, N: n}, k)
			}
			reportResult(b, r, io.Cycles)
		})
	}
}
