// Command bench is the repository's benchmark: six workloads under fixed
// conditions, end-to-end and per-layer metrics by name and unit, and a
// crash-recovery durability check at the end of every run. See README.md.
//
//	go run ./bench                      all six workloads, one child process each
//	go run ./bench -trace 1             the same, plus each workload's traced run and ladder
//	go run ./bench -sets 2              two full sets back to back, then -compare them
//	go run ./bench -compare a.json b.json
//	go run ./bench -workload net-get-p1 -seed 3 -seconds 10 -trace 0    one run (BENCHMARK.json's command)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

const outDir = "bench/out"

func main() {
	name := flag.String("workload", "", "run this one workload in this process; empty runs all six, each in a child process")
	seed := flag.Int64("seed", 1, "op-stream seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "timed seconds per run: five windows of seconds/5 after a warm-up of seconds/10")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics, spans, ladder) instead of, or with no -workload after, the timed run")
	sets := flag.Int("sets", 1, "full sets to run back to back; 2 or more ends with -compare of the first and last")
	compare := flag.Bool("compare", false, "compare two set files: bench -compare a.json b.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = compareMain(flag.Args())
	case *seconds < 5 || *trace < 0 || *trace > 1 || *sets < 1:
		err = fmt.Errorf("want -seconds >= 5, -trace 0 or 1, -sets >= 1")
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		err = runChild(w, *seed, *seconds, *trace == 1)
	default:
		err = runSets(*sets, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runChild runs one workload in this process, prints its metrics, writes
// its result file, and ends standard output with the one-line JSON result.
// An incorrect run is an error: the process exits non-zero.
func runChild(w *workload, seed int64, seconds int, traced bool) error {
	var (
		res *result
		err error
	)
	if traced {
		res, err = tracedRun(w, seed, seconds)
	} else {
		res, err = timedRun(w, seed, seconds)
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	file := w.name + ".json"
	if traced {
		file = "layers-" + file
	}
	if err := writeJSON(filepath.Join(outDir, file), res); err != nil {
		return err
	}
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed the correctness checks", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runSets runs every workload, each in a child process so that it starts
// with a clean metrics registry and Go heap, and writes one set file per set.
func runSets(sets int, seed int64, seconds int, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(w *workload, trace int) error {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		return cmd.Run() // waits for the child to end
	}
	var files []string
	var failed error
	for s := 1; s <= sets; s++ {
		var set []*result
		for i := range workloads {
			w := &workloads[i]
			fmt.Printf("\n=== set %d: %s — %s\n", s, w.name, w.why)
			file := filepath.Join(outDir, w.name+".json")
			_ = os.Remove(file) // a child that dies early must not leave an older run's result to be read
			if err := child(w, 0); err != nil {
				failed = fmt.Errorf("%s: %w", w.name, err)
			}
			var res result
			if err := readJSON(file, &res); err != nil {
				return err
			}
			set = append(set, &res)
			if traced {
				fmt.Printf("\n=== set %d: %s — traced run\n", s, w.name)
				if err := child(w, 1); err != nil {
					failed = fmt.Errorf("%s traced: %w", w.name, err)
				}
			}
		}
		file := filepath.Join(outDir, fmt.Sprintf("set-%d.json", s))
		if err := writeJSON(file, set); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", file)
		files = append(files, file)
	}
	if failed != nil {
		return failed
	}
	if sets > 1 {
		return compareMain([]string{files[0], files[len(files)-1]})
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
