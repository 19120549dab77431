package main

import (
	"path/filepath"
	"strings"
	"testing"

	"pmwcas"
)

// TestRestoreAdoptsImageGeometry: a restart with the default flags on a
// checkpoint written with other -size, -shards and -descriptors opens the
// image with its own geometry, while a geometry flag given on the command
// line must still match it and an error names the field that does not.
func TestRestoreAdoptsImageGeometry(t *testing.T) {
	img := filepath.Join(t.TempDir(), "store.img")
	s, err := pmwcas.Create(pmwcas.Config{Size: 8 << 20, Shards: 2, Descriptors: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(img); err != nil {
		t.Fatal(err)
	}
	defaults := pmwcas.Config{Size: 256 << 20, Shards: 1, Descriptors: 4096}

	s, restored, err := openStore(defaults, img, map[string]bool{})
	if err != nil {
		t.Fatalf("restore with default flags: %v", err)
	}
	if !restored || s.Device().Size() != 8<<20 || s.ShardCount() != 2 || s.Stats().DescriptorsCap != 2*512 {
		t.Fatalf("restored %v with %d bytes, %d shards, %d descriptors; want the image's 8 MiB, 2 shards, 2×512",
			restored, s.Device().Size(), s.ShardCount(), s.Stats().DescriptorsCap)
	}

	for flag, field := range map[string]string{"size": "Size", "shards": "Shards", "descriptors": "Descriptors"} {
		_, _, err := openStore(defaults, img, map[string]bool{flag: true})
		if err == nil || !strings.Contains(err.Error(), "laid out with "+field+" ") {
			t.Errorf("restore with -%s set to another value: err = %v, want one naming %s", flag, err, field)
		}
	}
}
