package main

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// debugTelemetry is the registry the live inspector reports on:
// newStudy stores the registry of every testbed it builds here, and
// analyze stores its dataset-read registry and then its restored
// study's, so /debug/vars always reflects the run in progress.
var debugTelemetry atomic.Pointer[telemetry.Registry]

// studyConfig accumulates the global flags (-parallel, -fault-seed,
// -fault-profile, -window, -no-trace, -fleet, -fleet-seed) into one
// job-scoped study config; every subcommand builds its testbed from it,
// the same way a serve job builds from a submitted spec.
var studyConfig core.Config

// armStudyConfig validates the global study flags into studyConfig.
func armStudyConfig(seed uint64, profile, window string) error {
	studyConfig.FaultSeed = seed
	studyConfig.FaultProfile = profile
	var err error
	if studyConfig.WindowFrom, studyConfig.WindowTo, err = core.ParseWindow(window); err != nil {
		return err
	}
	return studyConfig.Validate()
}

// newStudy builds the testbed and registers it with the debug
// inspector. All subcommands construct their study through this.
func newStudy() *core.Study {
	s, err := core.NewStudyFromConfig(studyConfig)
	if err != nil {
		// The config was validated at flag-parse time; reaching this is
		// a programming error, not a usage one.
		fmt.Fprintln(os.Stderr, "iotls:", err)
		os.Exit(1)
	}
	debugTelemetry.Store(s.Telemetry)
	return s
}

var publishOnce sync.Once

// startDebugServer serves expvar (/debug/vars) and pprof
// (/debug/pprof/) on addr, returning the bound address. The server
// only reads telemetry snapshots, so it cannot perturb a running
// study.
func startDebugServer(addr string) (string, error) {
	publishOnce.Do(func() {
		expvar.Publish("iotls.telemetry", expvar.Func(func() any {
			reg := debugTelemetry.Load()
			if reg == nil {
				return nil
			}
			return reg.Snapshot()
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}
