package owan

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// cmdFlagDefaults is the command-line surface of the three mains that run
// the annealing search: every flag name and the default that -h prints for
// it ("" when -h prints none, i.e. the zero value). The search flags
// (-workers, -batch, -delta, -replicas, -warmstart) are declared once in
// internal/core; this table holds each main to the same names and defaults
// it had when it declared them itself.
var cmdFlagDefaults = map[string]map[string]string{
	"owan-sim": {
		"approach": `"owan"`, "batch": "", "cpuprofile": "", "delta": "",
		"full": "", "load": "1", "memprofile": "", "replicas": "",
		"save-trace": "", "seed": "1", "sigma": "", "topo": `"internet2"`,
		"trace": "", "warmstart": "", "workers": "",
	},
	"owan-bench": {
		"batch": "", "cpuprofile": "", "delta": "", "fig": `"all"`,
		"full": "", "iters": "", "memprofile": "", "outdir": "",
		"replicas": "", "seeds": "", "slots": "", "topo": `"all"`,
		"warmstart": "", "workers": "",
	},
	"owan-controller": {
		"batch": "", "delta": "", "heartbeat": "2m0s",
		"listen": `"127.0.0.1:9200"`, "max-clients": "", "ports": "10",
		"queue-depth": "1024", "replicas": "", "seed": "1", "shards": "4",
		"slot": "5s", "topo": `"internet2"`, "warmstart": "", "workers": "",
		"write-timeout": "10s",
	},
}

// TestCmdSearchFlags builds owan-sim, owan-bench and owan-controller, runs
// each with -h, and compares every flag name and printed default with
// cmdFlagDefaults, so moving a flag's declaration cannot rename it, drop it
// or change its default unnoticed.
func TestCmdSearchFlags(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	if _, err := os.Stat("go.mod"); err != nil {
		t.Fatalf("not running at the module root: %v", err)
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir}
	for name := range cmdFlagDefaults {
		args = append(args, "./cmd/"+name)
	}
	if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build failed:\n%s", out)
	}
	for name, want := range cmdFlagDefaults {
		// -h exits 0 or 2 depending on the toolchain; only the text matters.
		out, _ := exec.Command(filepath.Join(dir, name), "-h").CombinedOutput()
		got := parseFlagDefaults(string(out))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s -h flags changed:\n got  %v\n want %v\n-h output:\n%s", name, got, want, out)
		}
	}
}

// parseFlagDefaults reads flag.PrintDefaults output: a line "  -name [type]"
// opens each flag, tab-indented usage lines follow, and a nonzero default
// ends the usage text as "(default V)".
func parseFlagDefaults(out string) map[string]string {
	nameRe := regexp.MustCompile(`^  -(\S+)`)
	defRe := regexp.MustCompile(`\(default (.*)\)$`)
	flags := map[string]string{}
	var name string
	var usage []string
	flush := func() {
		if name == "" {
			return
		}
		flags[name] = ""
		if m := defRe.FindStringSubmatch(strings.Join(usage, " ")); m != nil {
			flags[name] = m[1]
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if m := nameRe.FindStringSubmatch(line); m != nil {
			flush()
			name, usage = m[1], nil
			continue
		}
		if name != "" && strings.TrimSpace(line) != "" {
			usage = append(usage, strings.TrimSpace(line))
		}
	}
	flush()
	return flags
}
