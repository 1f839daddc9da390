package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// goldenJSON pins, for seed 1 at scale 1, the outputs each workload must
// reproduce: a digest of the first fleet jobs' digests, each fault
// campaign's table digest, and each SLAM sequence's ATE bits and work
// ledger. Regenerate with -write-goldens benchmark/testdata/goldens.json.
//
//go:embed testdata/goldens.json
var goldenJSON []byte

type goldenFile map[string]map[string]string

// checkGoldenValues compares the values a run computed (one map per
// session) against the pinned goldens and returns how many differ or are
// missing. With -write-goldens it records the first session's values
// instead.
func checkGoldenValues(name string, cfg config, got []map[string]string) int {
	if cfg.writeGoldens != "" {
		if err := writeGoldens(cfg.writeGoldens, name, got[0]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if !cfg.checkGoldens() {
		return 0
	}
	var all goldenFile
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: goldens:", err)
		return 1
	}
	want := all[name]
	if len(want) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: no goldens pinned\n", name)
		return 1
	}
	bad := 0
	for _, g := range got {
		for _, k := range sortedKeys(want) {
			v, ok := g[k]
			switch {
			case !ok:
				fmt.Fprintf(os.Stderr, "benchmark: %s: golden %s not computed\n", name, k)
				bad++
			case v != want[k]:
				fmt.Fprintf(os.Stderr, "benchmark: %s: golden %s mismatch:\n  got  %s\n  want %s\n", name, k, v, want[k])
				bad++
			}
		}
	}
	return bad
}

// writeGoldens replaces one workload's entry in the goldens file, keeping
// the others.
func writeGoldens(path, name string, vals map[string]string) error {
	all := goldenFile{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("goldens %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	all[name] = vals
	data, err = json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
