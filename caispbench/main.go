// Command caispbench is the CAISP benchmark. It runs core.Platform as
// cmd/caispd assembles it, in streaming mode, against feeds served over
// loopback HTTP by its own generator, reads the results off the
// platform's real sockets and APIs, checks them, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
//	caispbench -workdir .bench_build --workload backfill --seed 1 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: backfill, churn-detect or federate-query")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 15, "measured run length in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
		workdir  = flag.String("workdir", ".bench_build", "directory for prepared data and run scratch")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "caispbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, workdir string) error {
	s, ok := findSpec(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("seconds must be positive")
	}
	res, facts, err := execute(s, seed, seconds, traced, workdir)
	if err != nil {
		return err
	}
	for _, v := range []any{map[string]any{"facts": facts}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// execute generates the run's inputs, prepares the history, and runs the
// end-to-end measurement or the traced replay.
func execute(s spec, seed int64, seconds int, traced bool, workdir string) (result, map[string]any, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, nil, err
	}
	hist, err := historyDir(s, workdir)
	if err != nil {
		return result{}, nil, fmt.Errorf("prepare history: %w", err)
	}
	runDir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(runDir)
	pools, win, err := makeInputs(s, seed, seconds)
	if err != nil {
		return result{}, nil, fmt.Errorf("generate inputs: %w", err)
	}
	gen, err := newFeedServer(pools, win)
	if err != nil {
		return result{}, nil, err
	}
	defer gen.close()
	e := &env{s: s, seed: seed, seconds: seconds, runDir: runDir, hist: hist, gen: gen}
	facts := runFacts(e, traced)
	var res result
	if traced {
		res, err = e.runTraced(facts)
	} else {
		res, err = e.runUntraced(facts)
	}
	return res, facts, err
}

// runFacts records the host and the run's fixed settings.
func runFacts(e *env, traced bool) map[string]any {
	f := map[string]any{
		"workload":        e.s.name,
		"why":             e.s.why,
		"seed":            e.seed,
		"seconds":         e.seconds,
		"traced":          traced,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          commit(),
		"source_sha256":   sourceHash(),
		"started":         time.Now().UTC().Format(time.RFC3339),
		"flush_interval":  flushInterval.String(),
		"poll_interval":   e.s.poll.String(),
		"mesh_interval":   e.s.meshEvery.String(),
		"setup_repeats":   setupRepeats,
		"subscriptions":   e.s.subs,
		"closed_loop":     e.s.closed,
		"window_step":     e.s.win.step,
		"window_size":     e.s.win.size,
		"history_rounds":  e.s.history.rounds,
		"history_items":   e.s.history.items,
		"history_aged":    e.s.history.aged,
		"lifecycle_every": e.s.lcInterval.String(),
		"lifecycle_batch": e.s.lcBatch,
	}
	f["analyst_think"] = e.s.queryThink.String()
	if !e.s.closed {
		f["version_period"] = e.s.period.String()
		f["new_records_per_s"] = float64(e.s.win.step*len(e.gen.pools)) / e.s.period.Seconds()
	}
	return f
}

// commit names the checked-out commit when the tree is a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the Go sources of the checkout, which identifies
// the code measured where no git metadata exists.
func sourceHash() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err == nil {
				h.Write([]byte(path))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
