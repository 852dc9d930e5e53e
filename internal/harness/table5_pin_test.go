package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"laxgpu/internal/metrics"
	"laxgpu/internal/sched"
	"laxgpu/internal/workload"
)

// table5Reference is the benchmark's committed Table 5 reference: every
// cell's full Summary for runner seeds 1 and 7, keyed
// "seed/scheduler/benchmark", each field rendered exactly.
const table5Reference = "../../perfbench/reference/table5.json"

// renderSummary renders every Summary field the way the reference does:
// floats in shortest round-trip form, integers in decimal.
func renderSummary(s metrics.Summary) map[string]string {
	out := make(map[string]string)
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		var txt string
		switch f.Kind() {
		case reflect.Float64:
			txt = strconv.FormatFloat(f.Float(), 'g', -1, 64)
		case reflect.Int, reflect.Int64:
			txt = strconv.FormatInt(f.Int(), 10)
		default:
			txt = f.String()
		}
		out[v.Type().Field(i).Name] = txt
	}
	return out
}

// TestTable5GridPinned runs the whole Table 5 grid (every scheduler of the
// table × every benchmark at the high rate) for both reference seeds and
// requires each cell's full Summary to match the committed reference
// exactly. It pins the dispatch order of every baseline, not just LAX: a
// change to any policy's ordering, preemption or the CP dispatch pass that
// moves one WG shows up here.
func TestTable5GridPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Table 5 grid twice")
	}
	raw, err := os.ReadFile(table5Reference)
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string]map[string]string
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	cells := GridCells(sched.Table5Schedulers, workload.HighRate)
	checked := 0
	for _, seed := range []int64{1, 7} {
		r := NewRunner()
		r.Seed = seed
		if err := r.Sweep(context.Background(), cells); err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			key := fmt.Sprintf("%d/%s/%s", seed, c.Sched, c.Bench)
			want, ok := ref[key]
			if !ok {
				t.Errorf("%s: no reference cell", key)
				continue
			}
			checked++
			got := renderSummary(r.MustRun(c.Sched, c.Bench, c.Rate))
			if reflect.DeepEqual(got, want) {
				continue
			}
			names := make([]string, 0, len(want))
			for k := range want {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				if got[k] != want[k] {
					t.Errorf("%s: %s = %s, reference %s", key, k, got[k], want[k])
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d fields, reference %d", key, len(got), len(want))
			}
		}
	}
	if checked != len(ref) {
		t.Errorf("checked %d cells, reference holds %d", checked, len(ref))
	}
}
