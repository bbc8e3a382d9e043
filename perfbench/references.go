package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
)

// referencesJSON holds the reference digests every op is checked
// against. Regenerate it with
//
//	bash perfbench/run.sh -make-references 0-99 > perfbench/references.json
//
// The references come from other code paths than the ones measured:
// the report from the CLI's snapshot→restore→render path at
// parallelism 1, the fleet months from the bulk FromStudy+Write path at
// parallelism 1 (the benchmark measures live rendering and the
// streaming spill at parallelism nproc).
//
//go:embed references.json
var referencesJSON []byte

// references are the expected outputs: the rendered catalog report
// (which catalog, analyze and coordinate must all reproduce) and, per
// fleet seed, each passive month shard's CRC32.
type references struct {
	ReportSHA256    string                       `json:"report_sha256"`
	FleetN          int                          `json:"fleet_n"`
	FleetWindow     string                       `json:"fleet_window"`
	FleetMonthCRC32 map[string]map[string]string `json:"fleet_month_crc32"`

	warnOnce sync.Once
}

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referencesJSON, &r); err != nil {
		return nil, fmt.Errorf("references.json: %w", err)
	}
	if r.FleetN != fleetN || r.FleetWindow != fleetWindow {
		return nil, fmt.Errorf("references.json is for a %d-device %s fleet, the benchmark runs %d devices over %s: regenerate it",
			r.FleetN, r.FleetWindow, fleetN, fleetWindow)
	}
	return &r, nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkReport compares a rendered report's digest with the reference.
func (r *references) checkReport(digest string) error {
	if digest != r.ReportSHA256 {
		return fmt.Errorf("report digest %.12s differs from reference %.12s", digest, r.ReportSHA256)
	}
	return nil
}

// checkFleetMonth compares one month shard's CRC with the reference
// for seed. A seed without references is checked only for integrity
// (CRC-clean read-back, record counts, no degradation), which the
// caller has already done; that is said once on stderr.
func (r *references) checkFleetMonth(seed uint64, month string, crc uint32) error {
	months, ok := r.FleetMonthCRC32[strconv.FormatUint(seed, 10)]
	if !ok {
		r.warnOnce.Do(func() {
			fmt.Fprintf(os.Stderr, "perfbench: no fleet reference for seed %d; months are checked for integrity only\n", seed)
		})
		return nil
	}
	want, ok := months[month]
	if !ok {
		return fmt.Errorf("no reference for month %s", month)
	}
	if got := fmt.Sprintf("%08x", crc); got != want {
		return fmt.Errorf("shard CRC %s differs from reference %s", got, want)
	}
	return nil
}

// makeReferences computes references.json for fleet seeds FROM-TO and
// prints it.
func makeReferences(spec string) error {
	lo, hi, ok := strings.Cut(spec, "-")
	from, err1 := strconv.ParseUint(lo, 10, 64)
	to, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || to < from {
		return fmt.Errorf("-make-references wants FROM-TO, got %q", spec)
	}
	dir, err := os.MkdirTemp(".bench_build", "references-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := references{FleetN: fleetN, FleetWindow: fleetWindow, FleetMonthCRC32: map[string]map[string]string{}}
	if r.ReportSHA256, err = referenceReport(); err != nil {
		return err
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs []error
	)
	seeds := make(chan uint64)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				months, err := referenceFleet(filepath.Join(dir, strconv.FormatUint(seed, 10)), seed)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("seed %d: %w", seed, err))
				} else {
					r.FleetMonthCRC32[strconv.FormatUint(seed, 10)] = months
				}
				mu.Unlock()
			}
		}()
	}
	for seed := from; seed <= to; seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	out, err := json.MarshalIndent(&r, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// referenceReport renders the catalog study the way `iotls report`
// does: run, snapshot to a dataset, restore into a fresh testbed,
// render.
func referenceReport() (string, error) {
	cfg := core.Config{Parallelism: 1}
	s, err := core.NewStudyFromConfig(cfg)
	if err != nil {
		return "", err
	}
	rep, err := s.RunAll()
	if err != nil {
		return "", err
	}
	if rep.Degraded() {
		return "", fmt.Errorf("reference study degraded")
	}
	ds := dataset.FromStudy(s, rep)
	if s, err = core.NewStudyFromConfig(cfg); err != nil {
		return "", err
	}
	if rep, err = dataset.Restore(s, ds); err != nil {
		return "", err
	}
	return sha256Hex(rep.Render(s)), nil
}

// referenceFleet captures the fleet study for seed through the bulk
// write path and returns each passive month's shard CRC.
func referenceFleet(dir string, seed uint64) (map[string]string, error) {
	cfg, err := fleetConfig(seed, 1)
	if err != nil {
		return nil, err
	}
	s, err := core.NewStudyFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := s.RunAll()
	if err != nil {
		return nil, err
	}
	if rep.Degraded() {
		return nil, fmt.Errorf("fleet study degraded")
	}
	if err := dataset.Write(dir, dataset.FromStudy(s, rep), dataset.Options{}); err != nil {
		return nil, err
	}
	shards, err := readShards(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for month, sh := range shards {
		out[month] = fmt.Sprintf("%08x", sh.CRC32)
	}
	return out, nil
}
