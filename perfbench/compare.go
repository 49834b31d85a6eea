package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the compare helper reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// compareMain runs the benchmark on two checkouts in interleaved pairs,
// alternating which side runs first, and prints per metric each side's
// median and quartiles and how many pairs the head won. The head is the
// checkout the benchmark runs in. Both sides run the head's benchmark
// code: its BENCHMARK.json and benchmark directories are copied into the
// base checkout first, and the untraced driver imports nothing of rsgen,
// so only rsgend differs between the sides.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	base := fs.String("base", "", "checkout of the base commit (e.g. a git worktree); receives the head's benchmark files")
	wl := fs.String("workload", "", "workload to compare")
	pairs := fs.Int("pairs", 10, "number of base/head pairs")
	seed := fs.Uint64("seed", 1, "seed of the first pair; pair k uses seed+k")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" {
		fmt.Fprintln(os.Stderr, "perfbench compare: -base is required")
		return 2
	}
	if _, err := lookupWorkload(*wl); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	head, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err == nil {
		err = syncBenchmark(head, *base, bf.Paths)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	sides := [2]string{*base, head}
	vals := [2]map[string][]float64{{}, {}}
	for k := 0; k < *pairs; k++ {
		order := []int{0, 1}
		if k%2 == 1 {
			order = []int{1, 0}
		}
		for _, side := range order {
			res, err := runOnce(sides[side], bf, *wl, *seed+uint64(k))
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench compare: pair %d, %s: %v\n", k, sides[side], err)
				return 1
			}
			for name, m := range res.Metrics {
				vals[side][name] = append(vals[side][name], m.Value)
			}
		}
	}
	fmt.Fprintf(out, "%s, %d pairs (base %s, head %s)\n", *wl, *pairs, *base, head)
	fmt.Fprintf(out, "%-22s %-32s %-32s %8s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "head won", "verdict")
	for _, m := range bf.EndToEnd {
		b, h := vals[0][m.Name], vals[1][m.Name]
		if len(b) < 2 || len(h) != len(b) {
			continue
		}
		wins := 0
		for k := range b {
			if (m.Better == "lower" && h[k] < b[k]) || (m.Better == "higher" && h[k] > b[k]) {
				wins++
			}
		}
		bq1, bmed, bq3 := quartiles(b)
		hq1, hmed, hq3 := quartiles(h)
		fmt.Fprintf(out, "%-22s %-32s %-32s %5d/%-2d  %s\n", m.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", bmed, bq1, bq3), fmt.Sprintf("%.4g [%.4g, %.4g]", hmed, hq1, hq3),
			wins, len(b), verdict(m.Better, m.Bound, b, h, wins))
	}
	return 0
}

// verdict applies the same-machine rules: a gain needs nine pair wins in
// ten and a median shift beyond the base's own quartile spread; a
// regression is a median worse by more than the metric's bound.
func verdict(better string, bound float64, b, h []float64, wins int) string {
	bq1, bmed, bq3 := quartiles(b)
	_, hmed, _ := quartiles(h)
	worse := hmed - bmed
	if better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound*bmed:
		return "regression"
	case float64(wins) >= 0.9*float64(len(b)) && -worse > bq3-bq1:
		return "gain"
	case bq3-bq1 > bound*bmed:
		return "unresolved (spread wider than bound)"
	}
	return "no change within bound"
}

// syncBenchmark copies BENCHMARK.json and the benchmark directories from
// the head checkout into the base checkout.
func syncBenchmark(head, base string, paths []string) error {
	if err := copyFile(filepath.Join(head, "BENCHMARK.json"), filepath.Join(base, "BENCHMARK.json")); err != nil {
		return err
	}
	for _, p := range paths {
		src := filepath.Join(head, p)
		err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, err := filepath.Rel(head, path)
			if err != nil {
				return err
			}
			return copyFile(path, filepath.Join(base, rel))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// runOnce runs the benchmark command in dir and parses its last line.
func runOnce(dir string, bf *benchmarkFile, wl string, seed uint64) (*result, error) {
	args := append(append([]string(nil), bf.Command[1:]...),
		"--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(bf.RunSeconds), "--trace", "0")
	cmd := exec.Command(bf.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parse result line %q: %w", last, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect output")
	}
	return &res, nil
}
