package interp

import (
	"fmt"
	"testing"

	"scoopqs/internal/compiler/passes"
	"scoopqs/internal/core"
)

// The interpreter's sync accounting must hold at every pool size: pool
// size is a scheduling detail, not a semantics knob.
func TestCopyLoopPooledWorkers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			f := parse(t, copyLoop)
			out, st := runCopyLoop(t, f, core.ConfigStatic.WithWorkers(workers), 50)
			checkSquares(t, out)
			if st.SyncsPerformed != 52 {
				t.Errorf("naive SyncsPerformed = %d, want 52", st.SyncsPerformed)
			}

			res, err := passes.Coalesce(f)
			if err != nil {
				t.Fatal(err)
			}
			out, st = runCopyLoop(t, res.Func, core.ConfigStatic.WithWorkers(workers), 50)
			checkSquares(t, out)
			if st.SyncsPerformed != 1 {
				t.Errorf("optimized SyncsPerformed = %d, want 1", st.SyncsPerformed)
			}
		})
	}
}
