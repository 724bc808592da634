package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadiness reruns a workload in n child processes on seeds seed,
// seed+1, ... and prints each end-to-end metric's median, quartiles and
// spread (interquartile range over median) against its bound in
// BENCHMARK.json. A spread within a third of the bound is steady; the
// bound itself is the most a regression check tolerates.
func steadiness(name string, seed uint64, seconds float64, n int, stdout, stderr io.Writer) int {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	for i := range n {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: reading result: %v\n", s, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "perfbench: seed %d: %d of %d operations failed\n", s, res.Failed, res.Attempted)
			return 1
		}
		parts := []string{fmt.Sprintf("seed=%d", s)}
		for _, m := range endToEnd {
			v := res.Metrics[m.Name].Value
			values[m.Name] = append(values[m.Name], v)
			parts = append(parts, fmt.Sprintf("%s=%.6g", m.Name, v))
		}
		fmt.Fprintln(stdout, strings.Join(parts, " "))
	}

	fmt.Fprintf(stdout, "%-20s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	ok := true
	for _, m := range endToEnd {
		q1, q2, q3 := quartiles(values[m.Name])
		spread := (q3 - q1) / q2
		bound := bounds[m.Name]
		verdict := "steady"
		switch {
		case m.Name == "setup_s":
			verdict = "exempt"
		case spread > bound:
			verdict, ok = "UNSTEADY", false
		case spread > bound/3:
			verdict = "within bound"
		}
		fmt.Fprintf(stdout, "%-20s %12.6g %12.6g %12.6g %8.4f %6.3f  %s\n", m.Name, q1, q2, q3, spread, bound, verdict)
	}
	if !ok {
		return 1
	}
	return 0
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
