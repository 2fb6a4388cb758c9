package experiments

// Figure is one named table or figure of the reproduction. Run renders it:
// text is the deterministic figure (what `figures -out` writes and the
// golden files pin); timing is a wall-clock view printed beside it, never
// part of the figure, and empty for studies that keep none.
type Figure struct {
	Name string
	Run  func() (text, timing string)
}

// Figures is the roster of every figure at one scale and seed, in the order
// cmd/figures prints them. It is the only list of figure names: the CLI,
// the golden test and the docs lint all range over it.
func Figures(scale Scale, seed int64) []Figure {
	return []Figure{
		envFigure("table1", scale, seed, Table1),
		envFigure("fig3", scale, seed, Fig3),
		envFigure("fig4", scale, seed, Fig4),
		envFigure("fig5", scale, seed, Fig5),
		envFigure("fig6", scale, seed, Fig6),
		envFigure("fig7", scale, seed, Fig7),
		studyFigure("fig8", scale, seed, Fig8),
		studyFigure("fig9", scale, seed, Fig9),
		envFigure("fig10", scale, seed, Fig10),
		envFigure("fig11", scale, seed, Fig11),
		studyFigure("a1", scale, seed, AblationHypervolume),
		studyFigure("a2", scale, seed, AblationBetaSweep),
		studyFigure("a3", scale, seed, AblationAlgorithmComparison),
		studyFigure("a4", scale, seed, AblationUCLDepth),
		studyFigure("a5", scale, seed, AblationComposite),
		studyFigure("a6", scale, seed, AblationRingSize),
		studyFigure("c1", scale, seed, ChurnStudy),
		studyFigure("c2", scale, seed, MitigationStudy),
		studyFigure("s1", scale, seed, ScaleStudy),
		studyFigure("v1", scale, seed, VivaldiStudy),
		studyFigure("o1", scale, seed, ObsStudy),
		studyFigure("r1", scale, seed, FaultStudy),
		studyFigure("g1", scale, seed, GrandStudy),
	}
}

type renderer interface{ Render() string }

// envFigure is a figure read off the shared measurement environment.
func envFigure[R renderer](name string, scale Scale, seed int64, study func(*Env) R) Figure {
	return Figure{name, func() (string, string) {
		return study(SharedEnv(scale, seed)).Render(), ""
	}}
}

// studyFigure is a figure that builds its own inputs from the scale and
// seed; a result with a RenderTiming method supplies the timing view.
func studyFigure[R renderer](name string, scale Scale, seed int64, study func(Scale, int64) R) Figure {
	return Figure{name, func() (string, string) {
		r := study(scale, seed)
		timing := ""
		if t, ok := any(r).(interface{ RenderTiming() string }); ok {
			timing = t.RenderTiming()
		}
		return r.Render(), timing
	}}
}
