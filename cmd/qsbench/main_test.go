package main

import (
	"bytes"
	"strings"
	"testing"

	"scoopqs/internal/harness"
)

// An unknown -experiment name is an error (main exits 1 on it) that
// lists exactly the registered names, and nothing runs before it.
func TestUnknownExperimentListsRegisteredNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-experiment", "table3,nosuch"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if stdout.Len() != 0 {
		t.Errorf("ran before rejecting the name:\n%s", stdout.String())
	}
	want := []string{"all"}
	for _, e := range harness.Experiments {
		want = append(want, e.Name)
	}
	msg := err.Error()
	_, list, ok := strings.Cut(msg, "(want ")
	if !ok || !strings.Contains(msg, `"nosuch"`) {
		t.Fatalf("error does not name the offender and the choices: %s", msg)
	}
	got := strings.Split(strings.TrimSuffix(list, ")"), ", ")
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("listed names %v, want %v", got, want)
	}
}

// Selection keeps the order given and expands "all" in place.
func TestSelectExperiments(t *testing.T) {
	sel, err := selectExperiments("table3, all")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1+len(harness.Experiments) || sel[0].Name != "table3" || sel[1].Name != harness.Experiments[0].Name {
		t.Errorf("selection = %d experiments starting %q, %q", len(sel), sel[0].Name, sel[1].Name)
	}
}
