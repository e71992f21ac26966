//go:build !amd64 || purego

package nn

// Without the amd64 assembly, the Go twins are the kernels.

func affineTKernel(w, b, x, out []float64) { affineTGo(w, b, x, out) }

func backOutputKernel(d, hidden, w, gW, dHidden []float64) { backOutputGo(d, hidden, w, gW, dHidden) }

func backHiddenKernel(active []int, dHidden, x, gB, gW []float64) bool {
	return backHiddenGo(active, dHidden, x, gB, gW)
}

func adamKernel(params, g, m, v []float64, k *adamConsts, decay bool) {
	adamGo(params, g, m, v, k, decay)
}
