package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// -cpuprofile must leave a complete profile behind: finish stops the
// profile and closes its file, so a small run's profile is non-empty by
// the time runExperiments returns.
func TestCPUProfileWritten(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	args := []string{
		"-experiment", "fig9", "-scale", "small", "-cores", "1,20",
		"-cpuprofile", prof, "-out", filepath.Join(dir, "fig9.txt"),
	}
	if got := runExperiments(args); got != 0 {
		t.Fatalf("%v: exit %d, want 0", args, got)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("%v: no CPU profile written (err=%v)", args, err)
	}
}

// Every flag is checked before anything runs or any file is opened: a
// bad value exits 2 and leaves an existing -out file as it was.
func TestUsageErrorsTouchNothing(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "keep.json")
	missing := filepath.Join(dir, "missing")
	want := []byte("previous output\n")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"format", []string{"-format", "xml"}},
		{"experiment", []string{"-experiment", "fig99"}},
		{"cores", []string{"-cores", "1,,2"}},
		{"zero cores", []string{"-cores", "0"}},
		{"repeated cores", []string{"-cores", "20,20"}},
		{"bench", []string{"-bench", "bogus"}},
		{"repeated bench", []string{"-bench", "heat,heat"}},
		{"seed", []string{"-seed", "-1"}},
		{"out directory", []string{"-out", filepath.Join(missing, "keep.json")}},
	} {
		if err := os.WriteFile(keep, want, 0o644); err != nil {
			t.Fatal(err)
		}
		// Later flags win, so each row overrides this valid command.
		args := append([]string{"-experiment", "table1", "-scale", "small", "-out", keep}, tc.args...)
		if got := runExperiments(args); got != 2 {
			t.Errorf("%s: %v: exit %d, want 2", tc.name, args, got)
		}
		if got, err := os.ReadFile(keep); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: %v: -out file now %q (err=%v), want %q", tc.name, args, got, err, want)
		}
		if _, err := os.Stat(missing); !os.IsNotExist(err) {
			t.Errorf("%s: %v: created %s", tc.name, args, missing)
		}
	}
}
