package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// result is the last line of one run, as a driver reads it.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a process of its own, so that peak memory, CPU
// time and the collector's state are that workload's alone. show passes the
// child's metric lines through.
func runChild(name string, seed int64, seconds float64, trace int, quick, show bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
	if quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last = sc.Text(); show && !strings.HasPrefix(last, "{") {
			fmt.Println(last)
		}
	}
	runErr := cmd.Wait()
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result (%v)", name, seed, runErr)
	}
	return &r, nil
}

// runAll runs every workload twice, tracing off and on, and prints every
// metric. It returns the exit code: 1 when any answer was wrong.
func runAll(names []string, seed int64, seconds float64, quick bool) int {
	code := 0
	for _, name := range names {
		for trace := 0; trace <= 1; trace++ {
			r, err := runChild(name, seed, seconds, trace, quick, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			if !r.Correct {
				code = 1
			}
		}
	}
	return code
}

// runAA runs the same code as two alternating sets of n seeds and prints, for
// every end-to-end metric on every workload, each set's median, quartiles and
// spread, and how far the second median is from the first: the two tests a
// driver applies before it trusts the benchmark. A spread above a third of the
// metric's bound in BENCHMARK.json is flagged with the bound it would need.
func runAA(names []string, n int, seed int64, seconds float64, quick bool) int {
	bounds := readBounds("BENCHMARK.json")
	values := [2]map[string][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, name := range names {
				r, err := runChild(name, seed+int64(i), seconds, 0, quick, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 2
				}
				if !r.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d operations failed\n", name, seed+int64(i), r.Failed, r.Attempted)
					return 1
				}
				for metric, m := range r.Metrics {
					key := name + " " + metric
					values[set][key] = append(values[set][key], m.Value)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "# seed %d done\n", seed+int64(i))
	}
	code := 0
	fmt.Println("workload metric | set A: median q1 q3 spread | set B: median q1 q3 spread | drift B/A-1 | bound")
	for _, name := range names {
		for _, def := range endToEnd {
			key := name + " " + def.name
			a, b := values[0][key], values[1][key]
			line := key
			for _, xs := range [][]float64{a, b} {
				q1, q2, q3 := quartiles(xs)
				line += fmt.Sprintf(" | %.5g %.5g %.5g %.4f", q2, q1, q3, spread(xs))
			}
			drift := median(b)/median(a) - 1
			bound := bounds[def.name]
			line += fmt.Sprintf(" | %+.4f | %.2f", drift, bound)
			if worst := max(spread(a), spread(b)); def.name != "setup_s" && worst > bound/3 {
				line += fmt.Sprintf("  SPREAD above a third of the bound: needs %.2f", 3*worst)
				if worst > bound {
					code = 1
				}
			}
			if drift > bound || (def.name == "query_qps" && -drift > bound) {
				line += "  DRIFT above the bound"
				code = 1
			}
			fmt.Println(line)
		}
	}
	return code
}

// readBounds reads the end-to-end bounds from BENCHMARK.json; a missing file
// leaves every bound at the contract's ceiling.
func readBounds(path string) map[string]float64 {
	bounds := make(map[string]float64)
	for _, def := range endToEnd {
		bounds[def.name] = 0.25
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &file) == nil {
		for _, m := range file.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	return bounds
}
