package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// exploreSpace is perfbench's explore design space at one input seed: six
// small kernel families at two scales, four EVE factors, and eight memory
// systems (L2 ways × LLC capacity × DRAM latency) sharing each stream.
func exploreSpace(seed uint64) campaign.Space {
	return campaign.Space{
		Kernels:     []string{"vvadd", "spmv", "redux", "pathfinder", "streamcluster-dist", "k-means"},
		Scales:      []int{256, 1024},
		Seeds:       []uint64{seed},
		N:           []int{1, 4, 8, 32},
		L2Ways:      []int{8, 16},
		LLCKB:       []int{1024, 2048},
		DRAMLatency: []int64{100, 200},
	}
}

// TestReplayMatchesLive is replay's gate: on every cell of the explore
// space at seeds 1 and 16, the stream recorded on the first cell of its
// (kernel, scale, seed, hwvl) group replays into each cell of the group
// with a Result deep-equal to sim.Run's — stats, mix, cycles, error — and
// with interval sampling on, into one cell per kernel, scale and factor,
// with equal interval series too.
func TestReplayMatchesLive(t *testing.T) {
	const limit = 4 << 20
	for _, seed := range []uint64{1, 16} {
		var (
			st    *sim.Stream
			group campaign.Params
		)
		for _, p := range exploreSpace(seed).Enumerate() {
			k, err := p.Workload()
			if err != nil {
				t.Fatal(err)
			}
			cfg := p.SystemConfig(0)
			key := p
			key.L2Ways, key.LLCKB, key.DRAMLatency = 0, 0, 0
			fresh := st == nil || key != group
			if fresh {
				var res sim.Result
				res, st = sim.Record(cfg, k, nil, limit)
				if st == nil {
					t.Fatalf("%s: no stream recorded", p)
				}
				if want := sim.Run(cfg, k); !reflect.DeepEqual(res, want) {
					t.Fatalf("%s: recording differs from the live run", p)
				}
				group = key
				cfg.Interval = 500
			}
			if got, want := sim.Replay(cfg, st), sim.Run(cfg, k); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (interval %d): replay differs from the live run\n got  %+v\n want %+v", p, cfg.Interval, got, want)
			} else if fresh && (want.Intervals == nil || len(want.Intervals.Samples) == 0) {
				t.Errorf("%s: interval sampling produced no series", p)
			}
		}
	}
}
