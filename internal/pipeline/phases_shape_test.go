package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"gocured"
)

// shapeOf renders a job's Phases as its (name, depth) sequence.
func shapeOf(res *JobResult) string {
	var b strings.Builder
	for i, sp := range res.Phases {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s/%d", sp.Name, sp.Depth)
	}
	return b.String()
}

// TestPhasesShape pins the (name, depth) sequence of the /cure phases list
// on every job path. perfbench maps these span names to its ledger layers,
// so a change here is a change to the benchmark's vocabulary.
func TestPhasesShape(t *testing.T) {
	const twoFuncs = `
int twice(int x) { return x + x; }
int main(void) { return twice(2) - 4; }
`
	ctx := context.Background()
	r := NewRunner(RunnerOptions{Workers: 1, Faults: &Faults{OnExecute: func(j Job) {
		if j.Name == "boom.c" {
			panic("injected test panic")
		}
	}}})
	dir := t.TempDir()
	cold := NewRunner(RunnerOptions{Workers: 1, CacheEntries: -1, Store: openArtifacts(t, dir)})
	if res := cold.Do(ctx, Job{Name: "store.c", Source: twoFuncs}); res.Err != nil {
		t.Fatal(res.Err)
	}
	warm := NewRunner(RunnerOptions{Workers: 1, CacheEntries: -1, Store: openArtifacts(t, dir)})

	const frontend = "frontend-raw/2 parse/2 sema/2 lower/2 infer/2 instrument/2 optimize/2"
	cases := []struct {
		path string
		r    *Runner
		job  Job
		tier string
		want string
	}{
		{"compile", r, Job{Name: "a.c", Source: tinyOK}, "compile",
			"request/0 queue-wait/1 compile/1 cache-compile/2 " + frontend},
		{"memory-hit", r, Job{Name: "a.c", Source: tinyOK}, "memory",
			"request/0 queue-wait/1 compile/1 cache-memory/2"},
		{"disk", warm, Job{Name: "store.c", Source: twoFuncs}, "disk",
			"request/0 queue-wait/1 compile/1 cache-disk/2 " + frontend + " store-read/2"},
		{"run", r, Job{Name: "a.c", Source: tinyOK, Run: true, Mode: gocured.ModeCured}, "memory",
			"request/0 queue-wait/1 compile/1 cache-memory/2 run/1"},
		{"trap", r, Job{Name: "oob.c", Source: tinyOOB, Run: true, Mode: gocured.ModeCured}, "compile",
			"request/0 queue-wait/1 compile/1 cache-compile/2 " + frontend + " run/1"},
		{"compile-error", r, Job{Name: "bad.c", Source: "int main(void) { return undeclared; }"}, "",
			"request/0 queue-wait/1 compile/1 cache-compile/2"},
		{"panic", r, Job{Name: "boom.c", Source: tinyOK}, "",
			"request/0 queue-wait/1"},
	}
	for _, tc := range cases {
		res := tc.r.Do(ctx, tc.job)
		if res.Tier != tc.tier {
			t.Errorf("%s: tier = %q, want %q (err %v)", tc.path, res.Tier, tc.tier, res.Err)
		}
		if got := shapeOf(res); got != tc.want {
			t.Errorf("%s: phases\n got %s\nwant %s", tc.path, got, tc.want)
		}
	}
}
