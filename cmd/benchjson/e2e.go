package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// E2EWorkload is one workload's end-to-end result, as benchmark/run.sh
// printed it: the JSON result line's metrics and failure count, plus the
// exact work counts of the "counts" line (messages, supersteps, facts,
// tuples), which must repeat from entry to entry unless a change meant to
// move them.
type E2EWorkload struct {
	JobS      float64          `json:"job_s"`
	SetupS    float64          `json:"setup_s"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Correct   bool             `json:"correct"`
	Counts    map[string]int64 `json:"counts,omitempty"`
}

// E2EEntry is one run of the whole suite at one commit.
type E2EEntry struct {
	Commit string `json:"commit"`
	// Args is the benchmark's own header for the run (seed, seconds,
	// GOMAXPROCS, partitions), identical for every workload of an entry.
	Args      string                 `json:"args"`
	Workloads map[string]E2EWorkload `json:"workloads"`
}

// E2ERecord is the BENCH_e2e.json schema: the end-to-end trajectory, oldest
// entry first.
type E2ERecord struct {
	Entries []E2EEntry `json:"entries"`
}

// parseE2E reads the concatenated output of `bash benchmark/run.sh
// --workload W ...` runs. Per workload it uses three lines: the header
// "# <workload> seed=... ", the "counts k=v ..." line and the JSON result
// line; everything else is for people.
func parseE2E(r io.Reader) (E2EEntry, error) {
	entry := E2EEntry{Workloads: map[string]E2EWorkload{}}
	var name string
	var counts map[string]int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the raw log stays visible
		switch {
		case strings.HasPrefix(line, "# "):
			f := strings.Fields(line)
			if len(f) < 2 {
				return entry, fmt.Errorf("malformed header %q", line)
			}
			name, counts = f[1], nil
			entry.Args = strings.Join(f[2:], " ")
		case strings.HasPrefix(line, "counts "):
			counts = map[string]int64{}
			for _, kv := range strings.Fields(line)[1:] {
				k, v, ok := strings.Cut(kv, "=")
				n, err := strconv.ParseInt(v, 10, 64)
				if !ok || err != nil {
					return entry, fmt.Errorf("malformed count %q", kv)
				}
				counts[k] = n
			}
		case strings.HasPrefix(line, "{"):
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return entry, fmt.Errorf("result line of %q: %w", name, err)
			}
			if name == "" {
				return entry, errors.New("result line before any \"# <workload>\" header")
			}
			entry.Workloads[name] = E2EWorkload{
				JobS: res.Metrics["job_s"].Value, SetupS: res.Metrics["setup_s"].Value,
				Attempted: res.Attempted, Failed: res.Failed, Correct: res.Correct, Counts: counts,
			}
			name = ""
		}
	}
	if err := sc.Err(); err != nil {
		return entry, err
	}
	if len(entry.Workloads) == 0 {
		return entry, errors.New("no benchmark result lines on stdin")
	}
	return entry, nil
}

// appendE2E adds one entry, parsed from stdin, to the record at path
// (created when missing) and fails when a workload reported failed jobs.
func appendE2E(path, commit string) error {
	entry, err := parseE2E(os.Stdin)
	if err != nil {
		return err
	}
	entry.Commit = commit
	var rec E2ERecord
	switch data, err := os.ReadFile(path); {
	case err == nil:
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	rec.Entries = append(rec.Entries, entry)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for name, w := range entry.Workloads {
		if w.Failed != 0 || !w.Correct {
			return fmt.Errorf("%s: %d of %d jobs failed their output check", name, w.Failed, w.Attempted)
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended entry %q (%d workloads) to %s, now %d entries\n",
		commit, len(entry.Workloads), path, len(rec.Entries))
	return nil
}
