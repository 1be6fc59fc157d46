package taxonomy

import (
	"strings"
	"testing"

	"parowl/internal/dl"
)

func TestDiffIdentical(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C")
	d := Compare(build(t, f, cs, nil, [2]int{0, 1}, [2]int{1, 2}), build(t, f, cs, nil, [2]int{0, 1}, [2]int{1, 2}))
	if !d.Empty() {
		t.Errorf("diff of identical taxonomies not empty:\n%s", d)
	}
	if !strings.Contains(d.String(), "identical") {
		t.Error("String for empty diff")
	}
}

func TestDiffAddedRemoved(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B", "C")
	old := build(t, f, cs, nil, [2]int{0, 1}, [2]int{0, 2})
	new_ := build(t, f, cs, nil, [2]int{0, 1}, [2]int{1, 2}) // C moved under B
	d := Compare(old, new_)
	// New entails C ⊑ B (was not entailed before).
	foundAdd := false
	for _, p := range d.AddedSubsumptions {
		if p == [2]string{"C", "B"} {
			foundAdd = true
		}
	}
	if !foundAdd {
		t.Errorf("C ⊑ B not reported as added: %+v", d.AddedSubsumptions)
	}
	if len(d.RemovedSubsumptions) != 0 {
		t.Errorf("unexpected removals: %+v", d.RemovedSubsumptions)
	}
	// Reverse direction swaps the report.
	rd := Compare(new_, old)
	if len(rd.RemovedSubsumptions) == 0 {
		t.Error("reverse diff lost the removal")
	}
}

func TestDiffUnsatChanges(t *testing.T) {
	f := dl.NewFactory()
	cs := names(f, "A", "B")
	old := build(t, f, cs, nil, [2]int{0, 1})
	new_ := build(t, f, cs, []int{0, -1})
	d := Compare(old, new_)
	if len(d.NewlyUnsatisfiable) != 1 || d.NewlyUnsatisfiable[0] != "B" {
		t.Errorf("NewlyUnsatisfiable = %v", d.NewlyUnsatisfiable)
	}
	back := Compare(new_, old)
	if len(back.NoLongerUnsatisfiable) != 1 {
		t.Errorf("NoLongerUnsatisfiable = %v", back.NoLongerUnsatisfiable)
	}
}

func TestDiffVocabulary(t *testing.T) {
	f := dl.NewFactory()
	old := build(t, f, names(f, "A", "B"), nil, [2]int{0, 1})
	new_ := build(t, f, names(f, "A", "C"), nil, [2]int{0, 1})
	d := Compare(old, new_)
	if len(d.OnlyInOld) != 1 || d.OnlyInOld[0] != "B" {
		t.Errorf("OnlyInOld = %v", d.OnlyInOld)
	}
	if len(d.OnlyInNew) != 1 || d.OnlyInNew[0] != "C" {
		t.Errorf("OnlyInNew = %v", d.OnlyInNew)
	}
	if !strings.Contains(d.String(), "only in old") {
		t.Error("report missing vocabulary section")
	}
}

func TestDiffEquivalenceCounts(t *testing.T) {
	f := dl.NewFactory()
	// Old: A and B unrelated; new: A ≡ B.
	cs := names(f, "R", "A", "B")
	old := build(t, f, cs, nil, [2]int{0, 1}, [2]int{0, 2})
	new_ := build(t, f, cs, []int{0, 1, 1}, [2]int{0, 1})
	d := Compare(old, new_)
	// A ⊑ B and B ⊑ A both newly entailed.
	if len(d.AddedSubsumptions) != 2 {
		t.Errorf("AddedSubsumptions = %+v, want the equivalence pair", d.AddedSubsumptions)
	}
}
