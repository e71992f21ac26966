//go:build amd64 && !purego

package nn

// The kernels in kernels_amd64.s. kernels.go documents each through its
// checked wrapper and Go twin.

//go:noescape
func affineTKernel(w, b, x, out []float64)

//go:noescape
func backOutputKernel(d, hidden, w, gW, dHidden []float64)

//go:noescape
func backHiddenKernel(active []int, dHidden, x, gB, gW []float64) bool

//go:noescape
func adamKernel(params, g, m, v []float64, k *adamConsts, decay bool)
