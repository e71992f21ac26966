package adasense

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"adasense/internal/features"
	"adasense/internal/nn"
)

// Model container format: the serialized System is a small versioned
// envelope around the network stream so that the feature layout travels
// with the weights.
//
// Layout: magic "ADSC" | uint32 version (1) | uint32 bin count |
// float64 spectral bin frequencies (Hz) | embedded network ("ADNN" ...).
const (
	containerMagic   = "ADSC"
	containerVersion = 1

	// maxContainerBins bounds the feature-layout size a container may
	// declare; real layouts have a handful of spectral bins.
	maxContainerBins = 256
)

// Save serializes the system as a versioned model container carrying the
// feature layout and the float32 network weights.
func (s *System) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(containerMagic); err != nil {
		return err
	}
	bins := s.binFreqs
	if bins == nil {
		bins = features.DefaultBinFreqsHz()
	}
	for _, v := range []uint32{containerVersion, uint32(len(bins))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, bins); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := s.Network.WriteTo(w)
	return err
}

// LoadSystem deserializes a system saved with Save. The network's input
// size must match the feature layout the container carries. A bare
// network stream (the pre-container format) is rejected with a pointer
// to re-save it with adasense-train.
func LoadSystem(r io.Reader) (*System, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(containerMagic))
	if err != nil {
		return nil, fmt.Errorf("adasense: reading model header: %w", err)
	}
	switch string(head) {
	case containerMagic:
		return loadContainer(br)
	case nn.Magic:
		return nil, fmt.Errorf("adasense: bare %q network stream (pre-container format) is not supported; re-save the model with adasense-train", head)
	default:
		return nil, fmt.Errorf("adasense: unrecognized model magic %q", head)
	}
}

// loadContainer reads the versioned envelope and the embedded network.
func loadContainer(br *bufio.Reader) (*System, error) {
	if _, err := br.Discard(len(containerMagic)); err != nil {
		return nil, err
	}
	var meta [2]uint32
	if err := binary.Read(br, binary.LittleEndian, &meta); err != nil {
		return nil, fmt.Errorf("adasense: reading container header: %w", err)
	}
	if meta[0] != containerVersion {
		return nil, fmt.Errorf("adasense: unsupported model container version %d", meta[0])
	}
	nBins := int(meta[1])
	if nBins < 0 || nBins > maxContainerBins {
		return nil, fmt.Errorf("adasense: implausible feature layout: %d spectral bins", nBins)
	}
	bins := make([]float64, nBins)
	if err := binary.Read(br, binary.LittleEndian, bins); err != nil {
		return nil, fmt.Errorf("adasense: reading feature layout: %w", err)
	}
	// Validate the layout itself (positive bin frequencies).
	if _, err := features.NewExtractor(bins); err != nil {
		return nil, fmt.Errorf("adasense: invalid feature layout: %w", err)
	}
	net, err := nn.Read(br)
	if err != nil {
		return nil, err
	}
	want := 3 * (2 + len(bins))
	if net.In != want {
		return nil, fmt.Errorf("adasense: model input size %d does not match its feature layout (%d features)", net.In, want)
	}
	return &System{Network: net, binFreqs: append([]float64(nil), bins...)}, nil
}
