package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcs/internal/workload"
)

// FuzzTraceRoundTrip reads arbitrary bytes as mcw and as gwf, writes what
// was read and reads it again: the two workloads must be equal, and the
// reader must accept whatever the writer wrote. mcw is exact, so the first
// read itself must survive. gwf writes times as seconds to the
// millisecond, so its first read may hold precision gwf cannot write; its
// property starts from the workload read back from one write.
func FuzzTraceRoundTrip(f *testing.F) {
	for _, w := range []*workload.Workload{exactWorkload(), {Jobs: []workload.Job{{
		ID: 1, User: "line1\nline2,with comma", Submit: time.Second,
		Tasks: []workload.Task{{ID: 1, Job: 1, Cores: 1, MemoryMB: 8, Runtime: time.Second, Accelerator: "a\nb"}},
	}}}} {
		for _, format := range []Format{mcwFormat{}, gwfFormat{}} {
			var buf bytes.Buffer
			if err := format.Write(&buf, w); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	for _, in := range []string{
		strings.Join([]string{"#mcw v1", "#columns user,job,task,submit_ns,runtime_ns,cores,memory_mb", "bob,3,7,1000,2000,4,256"}, "\n"),
		"#mcw v1\n#columns " + mcwColumns + "\n5,3\n",
		"# header\n\n  \n1 1 0.0 10.0 2 512 alice -\n",
		"\n2 3 5.0 1.0 1 64 bob -\n1 1 0.0 1.0 1 64 alice -\n1 2 0.0 1.0 1 64 alice 1\n",
		"1 1 0.0 10.0 2 512 alice 1,x\n",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{mcwFormat{}, gwfFormat{}} {
			w, err := format.Read(bytes.NewReader(data))
			if err != nil {
				continue
			}
			if format.Name() == FormatGWF {
				w = roundTrip(t, format, w)
			}
			if got := roundTrip(t, format, w); !reflect.DeepEqual(got, w) {
				t.Fatalf("%s round trip altered the workload:\n want %+v\n  got %+v", format.Name(), w, got)
			}
		}
	})
}

// roundTrip writes w in format and reads it back.
func roundTrip(t *testing.T, format Format, w *workload.Workload) *workload.Workload {
	t.Helper()
	var buf bytes.Buffer
	if err := format.Write(&buf, w); err != nil {
		t.Fatalf("%s: write what was read: %v", format.Name(), err)
	}
	got, err := format.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: read what was written: %v\n%q", format.Name(), err, buf.Bytes())
	}
	return got
}
