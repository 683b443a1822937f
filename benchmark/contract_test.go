package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contract is BENCHMARK.json. Decoding rejects unknown keys; the test checks
// that every required one is set.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)
)

func TestContractShape(t *testing.T) {
	c := loadContract(t)
	if len(c.Command) == 0 || len(c.Command) > 32 {
		t.Errorf("command has %d strings", len(c.Command))
	}
	if len(c.Paths) == 0 || len(c.Paths) > 16 {
		t.Errorf("paths has %d entries", len(c.Paths))
	}
	for _, p := range c.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	metric := func(d declared) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range c.EndToEnd {
		metric(d)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
		}
	}
	for _, d := range c.PerLayer {
		metric(d)
		if d.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	var setup *declared
	for i := range c.EndToEnd {
		if c.EndToEnd[i].Name == "setup_s" {
			setup = &c.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s must be declared with unit s and better lower")
	}
	for _, d := range c.EndToEnd {
		if *d.Bound > *setup.Bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", d.Name, *d.Bound, *setup.Bound)
		}
	}
}

// TestContractMatchesHarness holds the declared workloads and metrics to the
// ones the harness defines, and each per-layer metric's expected effects to
// declared end-to-end metrics and workloads.
func TestContractMatchesHarness(t *testing.T) {
	c := loadContract(t)
	var workloadNames []string
	for _, w := range workloads {
		workloadNames = append(workloadNames, w.name)
	}
	var declaredNames []string
	for _, w := range c.Workloads {
		declaredNames = append(declaredNames, w.Name)
	}
	if strings.Join(workloadNames, ",") != strings.Join(declaredNames, ",") {
		t.Errorf("workloads: harness %v, declared %v", workloadNames, declaredNames)
	}
	same := func(kind string, defs []metricDef, decl []declared) {
		if len(defs) != len(decl) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(defs), len(decl))
		}
		for i := range min(len(defs), len(decl)) {
			d, x := defs[i], decl[i]
			if d.name != x.Name || d.unit != x.Unit || d.better != x.Better {
				t.Errorf("%s #%d: harness %s %s %s, declared %s %s %s", kind, i, d.name, d.unit, d.better, x.Name, x.Unit, x.Better)
			}
		}
	}
	same("end_to_end", endToEnd, c.EndToEnd)
	same("per_layer", perLayer, c.PerLayer)

	isWorkload, isEndToEnd := map[string]bool{}, map[string]bool{}
	for _, w := range declaredNames {
		isWorkload[w] = true
	}
	for _, d := range c.EndToEnd {
		isEndToEnd[d.Name] = true
	}
	for _, d := range perLayer {
		for _, mv := range d.moves {
			metric, w, ok := strings.Cut(mv, "@")
			if !ok || !isEndToEnd[metric] || !isWorkload[w] {
				t.Errorf("%s moves %q: not an end-to-end metric on a workload", d.name, mv)
			}
		}
	}
}
