package executor_test

import (
	"fmt"
	"testing"

	"repro/internal/db/executor"
	"repro/internal/db/executor/exectest"
)

// TestSlotContract runs every operator plain and then poisoned — each
// tuple crossing any edge of the plan, and the bytes of its strings,
// is overwritten with garbage the moment the slot rule (executor.Node)
// says it may be. The results must be identical: a consumer that keeps
// a tuple, or a string of one, without copying it (Sort, Material, the
// hash-join build, the merge-join group and its key, the group head,
// min/max, exectest.Run) returns garbage here.
func TestSlotContract(t *testing.T) {
	for name, plan := range executor.SlotPlans(t) {
		t.Run(name, func(t *testing.T) {
			want, err := exectest.Run(plan())
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("plan emitted nothing; the test needs rows")
			}
			got, err := exectest.Run(exectest.Poison(plan()))
			if err != nil {
				t.Fatal(err)
			}
			if w, g := fmt.Sprint(want), fmt.Sprint(got); w != g {
				t.Fatalf("poisoned plan returned %d rows, plain plan %d, or their contents differ:\npoisoned %.300s\nplain    %.300s",
					len(got), len(want), g, w)
			}
		})
	}
}
