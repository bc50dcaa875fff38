package trace

// The pluggable trace-format registry. A Format serializes a
// workload.Workload to a file and parses it back; scenario documents name
// formats declaratively ("workload": {"trace": "...", "format": "mcw"}),
// so any trace-capable scenario can read — and export — any registered
// format. The empty format name resolves by file extension, defaulting to
// GWF for backward compatibility with pre-registry documents.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mcs/internal/workload"
)

// ErrUnknownFormat reports a format name missing from the registry.
var ErrUnknownFormat = errors.New("trace: unknown format")

// Format reads and writes one on-disk trace representation.
type Format interface {
	// Name is the registry key ("gwf", "mcw", ...).
	Name() string
	// Read parses a trace into a workload.
	Read(in io.Reader) (*workload.Workload, error)
	// Write serializes a workload. Formats document whether the encoding
	// is exact; only exact formats guarantee byte-identical replay.
	Write(out io.Writer, w *workload.Workload) error
}

var formats = map[string]Format{}

// RegisterFormat adds a format to the registry. Called from init functions;
// duplicate or empty names are programming errors.
func RegisterFormat(f Format) {
	name := f.Name()
	if name == "" {
		panic("trace: RegisterFormat with empty name")
	}
	if _, dup := formats[name]; dup {
		panic(fmt.Sprintf("trace: duplicate format %q", name))
	}
	formats[name] = f
}

// Formats returns the registered format names in sorted order.
func Formats() []string {
	names := make([]string, 0, len(formats))
	for name := range formats {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FormatByName resolves a format name. The empty name is an error here;
// use ResolveFormat when a file path is available to sniff from.
func FormatByName(name string) (Format, error) {
	f, ok := formats[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownFormat, name, strings.Join(Formats(), ", "))
	}
	return f, nil
}

// ResolveFormat resolves an explicit format name, or — when name is empty —
// sniffs from the path's extension (".mcw" → mcw, anything else → gwf, the
// historical default of the datacenter scenario's workload.trace field).
func ResolveFormat(name, path string) (Format, error) {
	if name != "" {
		return FormatByName(name)
	}
	if ext := strings.TrimPrefix(filepath.Ext(path), "."); ext != "" {
		if f, ok := formats[ext]; ok {
			return f, nil
		}
	}
	return FormatByName(FormatGWF)
}

// Ref is the shared "workload" sub-document of trace-capable scenarios:
// a trace path plus an optional format name. Adapters embed it in their
// workload block so the declarative vocabulary cannot drift between kinds.
type Ref struct {
	Trace  string `json:"trace"`
	Format string `json:"format"`
}

// SourceFor selects the workload source a scenario document declares: the
// referenced trace file when ref names one, else synthetic generation from
// gen under an RNG seeded with seed. Every adapter that runs the job/task
// form routes through it; banking, which clears a transaction column and
// builds the job form only for export, applies the same rule itself —
// File for a trace, rand.New(rand.NewSource(seed)) for synthesis.
func SourceFor(ref Ref, seed int64, gen func(r *rand.Rand) (*workload.Workload, error)) workload.Source {
	if ref.Trace != "" {
		return File{Path: ref.Trace, Format: ref.Format}
	}
	return workload.Synthetic{Seed: seed, Gen: gen}
}

// File is the trace-backed workload source: it opens Path and parses it
// with the named (or sniffed) format. It implements workload.Source.
type File struct {
	Path string
	// Format names the registered format; empty sniffs from the extension.
	Format string
}

// Load implements workload.Source.
func (f File) Load() (*workload.Workload, error) {
	format, err := ResolveFormat(f.Format, f.Path)
	if err != nil {
		return nil, err
	}
	file, err := os.Open(f.Path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	w, err := format.Read(file)
	if err != nil {
		return nil, fmt.Errorf("trace %s (%s): %w", f.Path, format.Name(), err)
	}
	return w, nil
}

// WriteFile serializes w to path in the named (or sniffed) format.
func WriteFile(path, formatName string, w *workload.Workload) error {
	format, err := ResolveFormat(formatName, path)
	if err != nil {
		return err
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := format.Write(file, w); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// Registered format names.
const (
	FormatGWF = "gwf"
	FormatMCW = "mcw"
)

// gwfFormat adapts the package-level GWF Read/Write to the registry.
// GWF stores times as millisecond-precision seconds, so it is lossy for
// sub-millisecond workloads; mcw is the exact native format.
type gwfFormat struct{}

func (gwfFormat) Name() string                                  { return FormatGWF }
func (gwfFormat) Read(in io.Reader) (*workload.Workload, error) { return Read(in) }
func (gwfFormat) Write(out io.Writer, w *workload.Workload) error {
	return Write(out, w)
}

func init() {
	RegisterFormat(gwfFormat{})
	RegisterFormat(mcwFormat{})
}
