package adasense_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"adasense"
)

// containerHeader hand-crafts a model-container header for malformed-input
// tests: magic | version | bin count | bins.
func containerHeader(version uint32, bins []float64) *bytes.Buffer {
	var buf bytes.Buffer
	buf.WriteString("ADSC")
	binary.Write(&buf, binary.LittleEndian, version)
	binary.Write(&buf, binary.LittleEndian, uint32(len(bins)))
	binary.Write(&buf, binary.LittleEndian, bins)
	return &buf
}

// TestLoadLegacyRawNetworkFormat pins the clean rejection of the
// pre-container format, a bare network stream with no container header:
// the error must tell the operator how to recover.
func TestLoadLegacyRawNetworkFormat(t *testing.T) {
	sys, _ := trainedSystem(t)
	var buf bytes.Buffer
	if _, err := sys.Network.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := adasense.LoadSystem(&buf)
	if err == nil {
		t.Fatalf("bare network stream loaded (%d inputs), want a rejection", loaded.Network.In)
	}
	if !strings.Contains(err.Error(), "re-save") || !strings.Contains(err.Error(), "adasense-train") {
		t.Fatalf("rejection %q does not say to re-save with adasense-train", err)
	}
}

func TestSaveWritesVersionedContainer(t *testing.T) {
	sys, _ := trainedSystem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:4]); got != "ADSC" {
		t.Fatalf("container magic = %q, want ADSC", got)
	}
	// The embedded network stream must follow the layout header:
	// 4 magic + 4 version + 4 count + 3×8 bins.
	if got := string(buf.Bytes()[36:40]); got != "ADNN" {
		t.Fatalf("embedded network magic = %q, want ADNN", got)
	}
}

func TestLoadTruncatedStreams(t *testing.T) {
	sys, _ := trainedSystem(t)
	var full bytes.Buffer
	if err := sys.Save(&full); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 2, 4, 9, 20, 40, full.Len() - 1} {
		if _, err := adasense.LoadSystem(bytes.NewReader(full.Bytes()[:n])); err == nil {
			t.Fatalf("stream truncated to %d bytes was accepted", n)
		}
	}
}

func TestLoadMismatchedFeatureLayout(t *testing.T) {
	sys, _ := trainedSystem(t)
	// A container declaring a 2-bin layout (12 features) around the
	// trained 15-input network must be rejected.
	buf := containerHeader(1, []float64{1, 2})
	if _, err := sys.Network.WriteTo(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := adasense.LoadSystem(buf); err == nil {
		t.Fatal("layout/network size mismatch accepted")
	}
}

func TestLoadRejectsBadContainers(t *testing.T) {
	sys, _ := trainedSystem(t)
	// Unsupported container version.
	buf := containerHeader(99, []float64{1, 2, 3})
	if _, err := sys.Network.WriteTo(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := adasense.LoadSystem(buf); err == nil {
		t.Fatal("unknown container version accepted")
	}

	// Implausible bin count (header lies about the layout size).
	var lie bytes.Buffer
	lie.WriteString("ADSC")
	binary.Write(&lie, binary.LittleEndian, uint32(1))
	binary.Write(&lie, binary.LittleEndian, uint32(1<<30))
	if _, err := adasense.LoadSystem(&lie); err == nil {
		t.Fatal("implausible bin count accepted")
	}

	// Non-positive bin frequency.
	neg := containerHeader(1, []float64{1, -2, 3})
	if _, err := sys.Network.WriteTo(neg); err != nil {
		t.Fatal(err)
	}
	if _, err := adasense.LoadSystem(neg); err == nil {
		t.Fatal("negative bin frequency accepted")
	}
}

func TestContainerRoundTripServes(t *testing.T) {
	sys, _ := trainedSystem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := adasense.LoadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The round-tripped system must be directly servable.
	svc, err := adasense.NewService(loaded)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.OpenSession("rt")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	m := adasense.NewMotion(mustSchedule(t, adasense.Segment{Activity: adasense.Stand, Duration: 5}), 3)
	b := adasense.NewSampler(adasense.DefaultNoiseModel(), 4).Sample(m, sess.Config(), 0, 1)
	if _, err := sess.Push(b); err != nil {
		t.Fatal(err)
	}
}
