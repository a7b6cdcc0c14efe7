package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rules"
)

func writeExample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "example.net")
	if err := os.WriteFile(path, []byte(rules.PaperExampleSeeded().Format()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSubcommands(t *testing.T) {
	path := writeExample(t)
	cases := [][]string{
		{"example"},
		{"run", path},
		{"paths", path},
		{"paths", path, "A"},
		{"query", path, "A", "a(X,Y)"},
		{"qdu", path, "C", "c(X,Y)"},
		{"trace", path},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestRunDurableAndRecover drives the durability surface of the CLI: a run
// with -data persists every node's store, recover prints it, and a second
// run over the same directory restarts from disk.
func TestRunDurableAndRecover(t *testing.T) {
	path := writeExample(t)
	dir := filepath.Join(t.TempDir(), "stores")
	oldData, oldDelta := *dataDir, *delta
	*dataDir, *delta = dir, true
	defer func() { *dataDir, *delta = oldData, oldDelta }()

	if err := run([]string{"run", path}); err != nil {
		t.Fatalf("durable run: %v", err)
	}
	if err := run([]string{"recover", dir}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := run([]string{"recover", dir, "A"}); err != nil {
		t.Fatalf("recover single node: %v", err)
	}
	// Restart over the recovered stores.
	if err := run([]string{"run", path}); err != nil {
		t.Fatalf("durable restart: %v", err)
	}
	if err := run([]string{"recover", filepath.Join(dir, "nope")}); err == nil {
		t.Fatal("recover of a missing store must fail")
	}
	old := *fsyncStr
	*fsyncStr = "bogus"
	if err := run([]string{"run", path}); err == nil {
		t.Fatal("unknown fsync policy must fail")
	}
	*fsyncStr = old
}

func TestRunErrors(t *testing.T) {
	path := writeExample(t)
	cases := [][]string{
		nil,                          // no subcommand
		{"bogus"},                    // unknown subcommand
		{"run"},                      // missing file
		{"run", "/no/such/file.net"}, // unreadable
		{"paths"},                    // missing file
		{"query", path, "A"},         // missing query
		{"query", path, "A", "broken("},
		{"trace"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunStaged(t *testing.T) {
	path := writeExample(t)
	old := *staged
	*staged = true
	defer func() { *staged = old }()

	if err := run([]string{"run", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTCPSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp subcommand skipped in -short mode")
	}
	path := writeExample(t)
	if err := run([]string{"tcp", path}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeSubcommand(t *testing.T) {
	path := writeExample(t)
	if err := run([]string{"analyze", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze"}); err == nil {
		t.Error("missing file must fail")
	}
}
