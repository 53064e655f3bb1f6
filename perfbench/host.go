package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostStamp identifies the machine and the code a record was measured on.
type hostStamp struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Revision is `git rev-parse HEAD`, or "unknown" outside a git
	// checkout; Dirty is "true", "false" or "unknown" to match.
	Revision string `json:"git_revision"`
	Dirty    string `json:"git_dirty"`
	// SourceDigest hashes every .go, go.mod and go.sum file under the
	// root, so records stay tied to the code without git.
	SourceDigest string `json:"source_digest"`
}

// sameHost reports whether two records were measured on the same kind of
// machine with the same toolchain; revisions may differ.
func sameHost(a, b hostStamp) error {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Errorf("cpu model %q vs %q", a.CPUModel, b.CPUModel)
	case a.NumCPU != b.NumCPU:
		return fmt.Errorf("num_cpu %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("go version %s vs %s", a.GoVersion, b.GoVersion)
	}
	return nil
}

func stampHost(root string) hostStamp {
	h := hostStamp{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Dirty:      "unknown",
	}
	if rev, err := git(root, "rev-parse", "HEAD"); err == nil {
		h.Revision = rev
		if st, err := git(root, "status", "--porcelain", "--untracked-files=no"); err == nil {
			h.Dirty = fmt.Sprint(st != "")
		}
	}
	if d, err := sourceDigest(root); err == nil {
		h.SourceDigest = d
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// git runs a git command in root without letting git search for a
// repository above root.
func git(root string, args ...string) (string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	cmd := exec.Command("git", args...)
	cmd.Dir = abs
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
