// Command bench is the repository's benchmark. It serves five fixed
// workloads end to end over loopback, checks the served decisions against
// the sequential reference, and reports end-to-end metrics; with -trace 1
// it instead prices each layer of the served path (see README.md).
//
// Build and run it through bench/run.sh from the repository root:
//
//	bash bench/run.sh -seed 1                      # every workload
//	bash bench/run.sh -workload admit-wire -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -workload cover -trace 1     # the per-layer ladder
//	bash bench/run.sh compare before/*.json -- after/*.json
//
// Each workload runs in its own re-executed child process, so its peak
// resident set is its own. The last line a run prints is its result as one
// JSON object; a copy with the host block goes to a result file under
// -out/results, which is what compare reads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	out      string
	child    bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input of the run is generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per workload run")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end phases")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for result files, span files and WAL directories")
	fs.BoolVar(&o.child, "child", false, "run the workload in this process (the parent re-executes itself with it)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.workload != "all" {
		if _, err := lookup(o.workload); err != nil {
			return o, err
		}
	}
	return o, nil
}

func runMain(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if opts.child {
		return childMain(opts, stdout, stderr)
	}
	names := []string{opts.workload}
	if opts.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for _, name := range names {
		if c := parentRun(opts, name, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// record is one result file: a run's outcome plus what it ran on.
type record struct {
	Workload string `json:"workload"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Host     host   `json:"host"`
	Spans    string `json:"spans,omitempty"`
	outcome
}

// final is the last line a run prints.
type final struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parentRun runs one workload in a re-executed child, passes its report
// through, writes the result file and prints the result line.
func parentRun(opts options, name string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-seed", strconv.FormatUint(opts.seed, 10),
		"-seconds", strconv.Itoa(opts.seconds), "-trace", strconv.Itoa(opts.trace), "-out", opts.out)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		fmt.Fprintf(stderr, "bench: %s: no result (%v)\n", name, errors.Join(runErr, err))
		return 1
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	rec.Workload, rec.Seconds, rec.Trace = name, opts.seconds, opts.trace
	rec.Host = hostInfo(opts.seed, filepath.Join(opts.out, "wal"), stderr)
	if path, err := writeRecord(opts.out, rec); err != nil {
		fmt.Fprintln(stderr, "bench: result file:", err)
	} else {
		fmt.Fprintf(stderr, "bench: %s: result file %s\n", name, path)
	}
	line, err := json.Marshal(final{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if runErr != nil || !rec.Correct {
		return 1
	}
	return 0
}

func writeRecord(out string, rec record) (string, error) {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Host.Seed, rec.Trace, time.Now().UnixNano()))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// childMain runs one workload in this process and prints its report, then
// its outcome as the last line.
func childMain(opts options, stdout, stderr io.Writer) int {
	w, err := lookup(opts.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	walRoot := filepath.Join(opts.out, "wal", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(walRoot)
	k, err := w.build(opts.seed, w.shape, walRoot)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: refusing the inputs: %v\n", w.name, err)
		return 2
	}
	secs := float64(opts.seconds)
	var o *outcome
	var rec record
	if opts.trace == 1 {
		var tr *tracer
		o, tr, err = traced(k, w, secs, walRoot)
		rec.Spans = filepath.Join(opts.out, "spans", fmt.Sprintf("%s-seed%d-%d.ndjson", w.name, opts.seed, os.Getpid()))
		if werr := tr.write(rec.Spans); werr != nil {
			err = errors.Join(err, fmt.Errorf("span file: %w", werr))
		}
	} else {
		o, err = e2e(k, w, secs, minLatencySamples)
	}
	if err != nil {
		o.fail("%v", err)
	}
	if !o.Correct {
		fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, o.Problem)
	}
	report(stdout, w, o)
	rec.outcome = *o
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if _, err := fmt.Fprintln(stdout, string(line)); err != nil || !o.Correct {
		return 1
	}
	return 0
}

// report prints a run's metrics, one per line, then its unbounded extras
// and sample counts; a traced run's ladder shows how the one-connection
// served cost splits into the on-path rungs and the server's own share.
func report(out io.Writer, w spec, o *outcome) {
	for _, name := range sortedNames(o.Metrics) {
		m := o.Metrics[name]
		fmt.Fprintf(out, "%-14s %-28s %14.6g %s\n", w.name, name, m.Value, m.Unit)
	}
	for _, name := range sortedNames(o.Extra) {
		m := o.Extra[name]
		fmt.Fprintf(out, "%-14s %-28s %14.6g %s (unbounded)\n", w.name, name, m.Value, m.Unit)
	}
	for _, name := range sortedNames(o.Samples) {
		fmt.Fprintf(out, "%-14s samples %-20s %14d\n", w.name, name, o.Samples[name])
	}
	if len(o.Path) == 0 {
		return
	}
	fmt.Fprintf(out, "%-14s ladder   %-34s %12.0f ns\n", w.name, "server.ns_per_item", o.Metrics["server.ns_per_item"].Value)
	for _, name := range o.Path {
		m, ok := o.Extra[name]
		if !ok {
			m = o.Metrics[name]
		}
		fmt.Fprintf(out, "%-14s ladder - %-34s %12.0f ns\n", w.name, name, m.Value)
	}
	fmt.Fprintf(out, "%-14s ladder = %-34s %12.0f ns\n", w.name, "server.self_ns_per_item", o.Metrics["server.self_ns_per_item"].Value)
}
