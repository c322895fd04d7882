// Package atomicfile replaces files atomically, the write discipline of
// every store in the repository (the contact-trace cache and the sweep
// service's job store): data goes to a temp file in the target's
// directory and a rename swaps it in, so concurrent readers and a
// mid-write crash only ever observe the old or the new complete file — at
// worst an orphaned temp file is left behind.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// Write atomically replaces path with data. The directory must exist.
// The temp file is created next to path, because a rename is atomic only
// within one file system, and is removed on every failure path.
func Write(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: writing %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("atomicfile: writing %s: %w", path, err)
	}
	return nil
}
