package main

import "strings"

const modulePrefix = "mobickpt/internal/"

// layerPackages maps a package path under mobickpt/internal/ to its layer.
// Packages missing here (obs, stats, energy, check, wire, ...) have no
// layer of their own: their samples go to the module that called them.
var layerPackages = map[string]string{
	"sim":        "sim",
	"des":        "des",
	"des/proc":   "des",
	"des/equeue": "equeue",
	"pdes":       "pdes",
	"mobile":     "mobile",
	"workload":   "workload",
	"rng":        "rng",
	"protocol":   "protocol",
	"storage":    "storage",
	"mlog":       "mlog",
	"trace":      "trace",
	"recovery":   "recovery",
}

// gcFrames are the runtime entry points of garbage-collection work: the
// background mark workers, mark assists charged to allocating goroutines,
// and the sweeper, scavenger and cycle start/stop.
var gcFrames = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.gcStart",
	"runtime.gcMarkDone",
	"runtime.gcMarkTermination",
}

// layerOf charges one profile sample, given its stack innermost frame
// first, to a layer:
//   - any GC frame makes it gc, so a mark assist inside an allocation is
//     GC work wherever it was triggered;
//   - otherwise the innermost frame from a mobickpt/internal package that
//     has a layer names it, so runtime work such as memmove counts against
//     the module that asked for it;
//   - what remains is runtime_other (scheduler, the benchmark itself).
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if l, ok := layerPackages[packageOf(fn)]; ok {
			return l
		}
	}
	return "runtime_other"
}

// packageOf returns the package path under mobickpt/internal/ of a fully
// qualified function name such as
// "mobickpt/internal/des/equeue.(*Calendar[...]).Push", or "" for
// functions outside the module.
func packageOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	head := rest // type arguments and receivers may contain slashes
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return rest
	}
	return rest[:slash+1+dot]
}

// splitByLayer sums the value at index vi of every sample per layer.
func splitByLayer(p *profile, vi int) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range p.Samples {
		out[layerOf(s.Stack)] += s.Values[vi]
	}
	return out
}
