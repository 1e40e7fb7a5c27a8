package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"quickr/internal/experiments"
	"quickr/internal/refimpl"
)

// expectedJSON holds the ad-hoc suite's exact answers at scale 1, as
// canonical hashes verified against the reference evaluator. The
// reference evaluator takes minutes at this size, so it runs once, when
// the file is regenerated:
//
//	cd perfbench && go run . -write-expected expected_sf1.json
//
//go:embed expected_sf1.json
var expectedJSON []byte

type expectedFile struct {
	Scale  float64           `json:"scale"`
	Hashes map[string]string `json:"hashes"`
}

func loadExpected() (map[string]string, error) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected_sf1.json: %w", err)
	}
	if len(f.Hashes) != len(suiteQueries()) {
		return nil, fmt.Errorf("expected_sf1.json has %d hashes for %d queries", len(f.Hashes), len(suiteQueries()))
	}
	return f.Hashes, nil
}

// writeExpected runs every suite query exactly at scale 1, requires the
// answer to match the reference evaluator's, and writes the hashes.
func writeExpected(path string) error {
	env := experiments.NewFullEnv(1)
	out := expectedFile{Scale: 1, Hashes: map[string]string{}}
	var bad []string
	for _, q := range suiteQueries() {
		got, err := env.Eng.Exec(q.SQL)
		if err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
		bound, err := env.Eng.BoundPlan(q.SQL)
		if err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
		want, err := refimpl.Run(env.Eng.Catalog(), bound)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", q.ID, err)
		}
		h := canonicalHash(got.InternalRows)
		if len(got.InternalRows) != len(want) || h != canonicalHash(want) {
			bad = append(bad, q.ID)
			continue
		}
		out.Hashes[q.ID] = h
		fmt.Fprintf(os.Stderr, "%s ok (%d rows)\n", q.ID, len(want))
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("exact answers differ from the reference evaluator: %v", bad)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
