"""Bit-for-bit pins of the complex-plane values, with the standard library
alone (no numpy, mpmath or scipy), so they run on every supported Python.

Each value is kept as float.hex, or as the name of the exception raised.
"""

import json
from pathlib import Path

from wtan import complex_plane
from wtan.complex_plane import SheetAtlas, Side, boundary_value, discontinuity_delta1, eval_complex
from wtan.errors import WtanError

DATA = Path(__file__).parent / "data"
PINS = DATA / "eval_complex_pins.json"
# Recorded before `_newton` took its forms inline and `halley_step` its
# shared products: boundary_value on the real cut of sheets +-1 and +-2
# (110 heights each, the tanh form) and on both sides of the vertical cuts
# of sheets 1-4, 8 and 600 (25 heights each, the sheet's sign alternating),
# discontinuity_delta1 at 30 heights, and the sheet-1 dispersion tables.
CUT_PINS = DATA / "cut_pins.json"


def _hex(y):
    return [y.real.hex(), y.imag.hex()]


def _complex(pair):
    return complex(*map(float.fromhex, pair))


class TestPins:
    def test_values_bit_for_bit(self):
        # y and residual as float.hex, or the exception's name, recorded at
        # ~400 fixed points before the exterior route took its certificate
        # from the last Newton step: exterior, both window k, band, germ
        # seed, -i*z seed and guards, on sheets 1-4, 8, 600 and 10**6 of
        # both signs.  A route names where z lies (in the band Re x_m <=
        # Re z <= 0, left or right of it) and what placed the value: the
        # window k tried first or the other one, a germ seed, or -i*z
        pins = json.loads(PINS.read_text())
        assert {p["route"] for p in pins} >= {
            "exterior", "band:window_first", "band:window_other", "band:germ",
            "band:minus_iz", "left:window_first", "right:window_first", "error:OnCut"}
        assert {abs(p["n"]) for p in pins} >= {1, 2, 3, 4, 8, 600, 10 ** 6}
        atlas = SheetAtlas()
        for pin in pins:
            z = complex(*map(float.fromhex, pin["z"]))
            try:
                v = eval_complex(z, pin["n"], atlas)
            except WtanError as e:
                got = {"error": type(e).__name__}
            else:
                got = {"y": [v.y.real.hex(), v.y.imag.hex()], "residual": v.residual.hex()}
            assert got == {k: pin[k] for k in pin.keys() - {"z", "n", "route"}}, pin


class TestCutPins:
    @staticmethod
    def _boundary_pins(sides):
        pins = [p for p in json.loads(CUT_PINS.read_text())["boundary_value"]
                if p["side"] in sides]
        atlas = SheetAtlas()
        for pin in pins:
            try:
                got = {"y": _hex(boundary_value(_complex(pin["point"]), pin["n"],
                                                Side(pin["side"]), atlas))}
            except WtanError as e:
                got = {"error": type(e).__name__}
            assert got == {k: pin[k] for k in pin.keys() - {"point", "n", "side"}}, pin
        return pins

    def test_real_cut_bit_for_bit(self):
        pins = self._boundary_pins({"upper", "lower"})
        for n in (1, -1, 2, -2):
            assert len({p["point"][0] for p in pins if p["n"] == n}) >= 100, n

    def test_vertical_cut_bit_for_bit(self):
        pins = self._boundary_pins({"left", "right"})
        assert {abs(p["n"]) for p in pins} == {1, 2, 3, 4, 8, 600}
        assert {(abs(p["n"]), p["side"]) for p in pins} == {
            (m, side) for m in (1, 2, 3, 4, 8, 600) for side in ("left", "right")}

    def test_discontinuity_delta1_bit_for_bit(self):
        pins = json.loads(CUT_PINS.read_text())["discontinuity_delta1"]
        assert len(pins) >= 20
        atlas = SheetAtlas()
        for pin in pins:
            assert _hex(discontinuity_delta1(float.fromhex(pin["v"]), atlas)) == pin["y"], pin

    def test_dispersion_tables_bit_for_bit(self):
        pins = json.loads(CUT_PINS.read_text())["dispersion_tables"]
        atlas = SheetAtlas()
        for layout in (complex_plane.DISPERSION_FINE, complex_plane.DISPERSION_COARSE):
            us, w0, d0, vs, w1, d1 = complex_plane._delta_tables(atlas, *layout)
            got = {"us": [u.hex() for u in us], "w0": [w.hex() for w in w0],
                   "d0": [d.hex() for d in d0], "vs": [v.hex() for v in vs],
                   "w1": [w.hex() for w in w1], "d1": [_hex(d) for d in d1]}
            assert got == pins[f"{layout[0]}x{layout[1]}"], layout
