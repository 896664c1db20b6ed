package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// expected.json pins, per workload, the SHA-256 of the report bytes and
// the simulated statistics at the pinned seed and scale. A faster
// simulator must still produce exactly these.

//go:embed expected.json
var expectedJSON []byte

type expectedEntry struct {
	Digest string   `json:"digest"`
	Sim    simStats `json:"sim"`
}

type expectedFile struct {
	Seed      uint64                   `json:"seed"`
	Scale     float64                  `json:"scale"`
	Workloads map[string]expectedEntry `json:"workloads"`
}

func loadExpected() (expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// lookup returns the pinned entry of a workload, if this seed and scale
// are the pinned ones.
func (e expectedFile) lookup(workload string, seed uint64, scale float64) (expectedEntry, bool) {
	if seed != e.Seed || scale != e.Scale {
		return expectedEntry{}, false
	}
	ent, ok := e.Workloads[workload]
	return ent, ok
}

// writeExpected rewrites the pinned file from a set of results
// (-update-expected). path is relative to the repository root, where
// `go run ./bench` runs.
func writeExpected(path string, seed uint64, scale float64, results []*result) error {
	e := expectedFile{Seed: seed, Scale: scale, Workloads: map[string]expectedEntry{}}
	for _, r := range results {
		e.Workloads[r.Workload] = expectedEntry{Digest: r.Digest, Sim: r.Sim}
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
