package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// digests are the pinned simulated outputs every run is checked against:
// one report digest per input seed for explore and faults.
type digests struct {
	Explore map[string]string `json:"explore"`
	Faults  map[string]string `json:"faults"`
}

//go:embed digests.json
var pinnedJSON []byte

func loadDigests() (*digests, error) {
	var d digests
	if err := json.Unmarshal(pinnedJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &d, nil
}

// pin runs one pass of every workload — explore and faults at each pinned
// input seed — and writes the digests to path. It is how digests.json is
// made; refresh it only for a change that is meant to alter simulated
// results.
func pin(path, dir string) error {
	d := digests{Explore: map[string]string{}, Faults: map[string]string{}}
	workers := min(2, runtime.NumCPU())
	for seed := uint64(1); seed <= pinnedSeeds; seed++ {
		for name, m := range map[string]map[string]string{"explore": d.Explore, "faults": d.Faults} {
			w, _ := newWorkload(name, seed, workers, dir, nil)
			p := w.run(nil)()
			if p.failed > 0 {
				return fmt.Errorf("%s seed %d: %d failed cells", name, seed, p.failed)
			}
			m[seedKey(seed)] = p.digest
		}
		warn("pinned seed %d", seed)
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
