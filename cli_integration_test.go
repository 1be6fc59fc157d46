package parowl_test

// End-to-end CLI coverage: each command is built once (cached by the Go
// toolchain) and exercised against generated corpora through its real
// flag surface.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runCmd builds and runs a command from ./cmd with the given arguments.
func runCmd(t *testing.T, name string, args ...string) (string, error) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

func TestCLIOwlclassProfile(t *testing.T) {
	out, err := runCmd(t, "owlclass", "-profile", "obo.PREVIOUS", "-scale", "30", "-workers", "2", "-stats")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"subs tests:", "classes:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIOwlclassFileAndDot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.obo")
	src := "[Term]\nid: A\n\n[Term]\nid: B\nis_a: A\n\n[Term]\nid: C\nis_a: B\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCmd(t, "owlclass", path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "⊤") || !strings.Contains(out, "  A") {
		t.Errorf("taxonomy output wrong:\n%s", out)
	}
	dot, err := runCmd(t, "owlclass", "-dot", path)
	if err != nil {
		t.Fatalf("%v\n%s", err, dot)
	}
	if !strings.HasPrefix(dot, "digraph taxonomy {") {
		t.Errorf("dot output wrong:\n%s", dot)
	}
}

func TestCLIOntogenAndTaxdiff(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.obo")
	newPath := filepath.Join(dir, "new.obo")
	if out, err := runCmd(t, "ontogen", "-profile", "WBbt.obo", "-scale", "100", "-seed", "1", "-o", oldPath); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out, err := runCmd(t, "ontogen", "-profile", "WBbt.obo", "-scale", "100", "-seed", "2", "-o", newPath); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Identical inputs: exit 0 and "identical".
	same, err := runCmd(t, "taxdiff", oldPath, oldPath)
	if err != nil {
		t.Fatalf("%v\n%s", err, same)
	}
	if !strings.Contains(same, "identical") {
		t.Errorf("taxdiff output: %s", same)
	}
	// Different inputs: exit 1 and a report.
	diff, err := runCmd(t, "taxdiff", oldPath, newPath)
	if err == nil {
		t.Fatal("taxdiff exit 0 on different ontologies")
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("taxdiff err = %v\n%s", err, diff)
	}
	if !strings.Contains(diff, "subsumptions") {
		t.Errorf("taxdiff report: %s", diff)
	}
}

func TestCLIBenchfigTables(t *testing.T) {
	out, err := runCmd(t, "benchfig", "-exp", "table5")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "bridg.biomedical_domain") || !strings.Contains(out, "967") {
		t.Errorf("table5 output wrong:\n%s", out)
	}
}

func TestCLIOwlclassErrors(t *testing.T) {
	if out, err := runCmd(t, "owlclass", "-profile", "nope"); err == nil {
		t.Errorf("unknown profile accepted:\n%s", out)
	}
	if out, err := runCmd(t, "owlclass"); err == nil {
		t.Errorf("no-argument call accepted:\n%s", out)
	}
	if out, err := runCmd(t, "owlclass", "-reasoner", "bogus", "-profile", "obo.PREVIOUS", "-scale", "50"); err == nil {
		t.Errorf("bogus reasoner accepted:\n%s", out)
	}
}

func TestCLIOwlclassQueryKernel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.obo")
	src := "[Term]\nid: A\n\n[Term]\nid: B\nis_a: A\n\n[Term]\nid: C\nis_a: B\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(dir, "mini.ck")
	spec := "subsumes:A,C;subsumes:C,A;ancestors:C;lca:B,C;depth:C"
	wantLines := []string{
		"subsumes(A, C) = true",
		"subsumes(C, A) = false",
		"ancestors(C) = A, B, ⊤",
		"lca(B, C) = B",
		"depth(C) = 3",
	}

	// The first run compiles the kernel and checkpoints the finished
	// classification.
	out, err := runCmd(t, "owlclass", "-checkpoint", ck, "-query", spec, path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want) {
			t.Errorf("first run missing %q:\n%s", want, out)
		}
	}

	// Resuming the finished run restores it and compiles the kernel
	// again: same answers, no warning.
	out, err = runCmd(t, "owlclass", "-checkpoint", ck, "-resume", ck, "-query", spec, path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range append([]string{"resumed from checkpoint"}, wantLines...) {
		if !strings.Contains(out, want) {
			t.Errorf("resumed run missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("resumed run warned:\n%s", out)
	}

	// A corrupted checkpoint degrades to a clean run, never wrong answers
	// or a failed run.
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(ck, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCmd(t, "owlclass", "-checkpoint", ck, "-resume", ck, "-query", spec, path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range append([]string{"WARNING: checkpoint not resumable"}, wantLines...) {
		if !strings.Contains(out, want) {
			t.Errorf("corrupt-checkpoint run missing %q:\n%s", want, out)
		}
	}

	if out, err := runCmd(t, "owlclass", "-query", "frobnicate:A", path); err == nil {
		t.Errorf("unknown query op accepted:\n%s", out)
	}
	if out, err := runCmd(t, "owlclass", "-query", "depth:Nope", path); err == nil {
		t.Errorf("unknown concept accepted:\n%s", out)
	}
}

// TestCLIRetiredSurfaces: flags and plug-in names that were removed must
// be refused with a non-zero exit, never silently ignored. A kernel has
// no on-disk form (-kernel); told subsumers (-told),
// the checkpointed plug-in cache (-cache) and the model-merging tableau
// (tableau-mm) are subsumed by the default cheap-first pipeline.
func TestCLIRetiredSurfaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mini.obo")
	if err := os.WriteFile(path, []byte("[Term]\nid: A\n\n[Term]\nid: B\nis_a: A\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	owlclass := buildCmd(t, dir, "owlclass")
	for _, args := range [][]string{
		{"-kernel", filepath.Join(dir, "mini.kernel"), "-query", "depth:B"},
		{"-told"},
		{"-cache"},
		{"-reasoner", "tableau-mm"},
	} {
		if out, err := exec.Command(owlclass, append(args, path)...).CombinedOutput(); err == nil {
			t.Errorf("owlclass %v accepted:\n%s", args, out)
		}
	}
	// owld validates -reasoner before it listens; the deadline only
	// guards against a daemon that starts serving instead, which the
	// exit-code check then reports (a killed process has no exit code).
	owld := buildCmd(t, dir, "owld")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, owld, "-addr", "127.0.0.1:0", "-reasoner", "tableau-mm").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() <= 0 {
		t.Errorf("owld -reasoner tableau-mm: err = %v, want a non-zero exit\n%s", err, out)
	}
}
