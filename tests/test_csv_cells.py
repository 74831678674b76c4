"""The CSV writer's cells: exactly format(v, '.17g'), formed by numpy a block
at a time, with printf left only the cells the product's error bound cannot
decide.

Each set below is written as one column and compared byte for byte with
Python's own formatting; the tables are checked against their definitions
from Python integers; every subcommand's files are checked against the
printf writer in ``oracles.py``.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dressedcavity import cli
from oracles import printf_write_csv, table_of


def written(tmp_path, values) -> bytes:
    cli.write_csv(tmp_path / "v.csv", ["v"], [np.asarray(values, np.float64)])
    return (tmp_path / "v.csv").read_bytes()


def formatted(values) -> bytes:
    return ("v\n" + "".join(format(v, ".17g") + "\n" for v in np.asarray(values).tolist())).encode()


def steps_from(values, ulps):
    """Each value and its neighbours up to ``ulps`` units in the last place either side."""
    out, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


# every power of ten a double can hold, correctly rounded from its decimal
POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])


def ties():
    """Exact 17-digit ties: odd m 2**-n with 18 significant digits, ending in 5."""
    rng = np.random.default_rng(7)
    out = []
    for n in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** n), min(10 ** 18 // 5 ** n, 2 ** 53)
        m = rng.integers(lo, hi, 200) | 1
        out.append(np.ldexp(m[m < hi].astype(np.float64), -n))
    return np.concatenate(out)


class TestExactCells:
    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(2024).integers(0, 2 ** 64, 420_000, np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert values.size >= 400_000
        assert written(tmp_path, values) == formatted(values)

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        values = steps_from(np.concatenate([POWERS, -POWERS]), 1)
        assert written(tmp_path, values) == formatted(values)

    def test_ties(self, tmp_path):
        values = ties()
        assert values.size > 4000
        # each is a tie: its exact value has 18 significant digits, the last a 5
        for v in values.tolist():
            digits = Decimal(v).normalize().as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        values = np.concatenate([values, -values])
        assert written(tmp_path, values) == formatted(values)

    def test_round_up_to_the_next_power_of_ten(self, tmp_path):
        # doubles below a power of ten, some close enough that 17 digits round up to it
        below = [v for k, v in zip(range(-323, 309), POWERS.tolist())
                 if Fraction(v) < Fraction(10) ** k]
        assert sum(format(v, ".16e").startswith("1.0000000000000000e") for v in below) >= 10
        values = steps_from(np.array(below), 2)
        assert written(tmp_path, values) == formatted(values)

    def test_switch_points(self, tmp_path):
        # fixed notation from 1e-4 up to below 1e17, exponent notation outside
        values = steps_from(np.array([1e-5, 1e-4, 1e16, 1e17]), 40)
        values = np.concatenate([values, -values])
        text = formatted(values).decode()
        assert "e-05" in text and "0.0001" in text and "e+17" in text
        assert written(tmp_path, values) == formatted(values)

    def test_specials_subnormals_and_integers(self, tmp_path):
        rng = np.random.default_rng(5)
        subnormals = rng.integers(1, 2 ** 52, 20_000, np.uint64).view(np.float64)
        integers = np.concatenate([np.arange(2 ** 16), rng.integers(0, 2 ** 53, 20_000),
                                   2 ** 53 - np.arange(1000)]).astype(np.float64)
        values = np.concatenate([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                                  2.0 ** -1022, np.nextafter(2.0 ** -1022, 0)],
                                 subnormals, -subnormals, integers, -integers])
        assert written(tmp_path, values) == formatted(values)


class TestTables:
    def test_powers_of_ten(self):
        for x, h, l, hh, ht in zip(cli._X.tolist(), cli._H, cli._L, cli._HH, cli._HT, strict=True):
            exact = Fraction(10) ** (16 - x)
            assert h == float(exact) and l == float(exact - Fraction(h))
            # Dekker's split: h in two halves of at most 26 significant bits
            assert hh + ht == h
            for odd in (Fraction(abs(half)).numerator for half in (hh, ht) if half):
                assert (odd // (odd & -odd)).bit_length() <= 26

    def test_digit_groups(self):
        for g in range(10_000):
            assert cli._GROUP[g].tobytes() == f"{g:04d}".encode() + bytes(4)
            assert cli._ZEROS[g] == 4 - len(f"{g:04d}".rstrip("0"))

    def test_prefix_and_exponent_of_each_exponent(self):
        for k, x in enumerate(cli._X.tolist()):
            lead = "0." + "0" * (-x - 1) if -4 <= x < 0 else ""
            assert cli._IP[k] == (max(x + 1, 0) if -4 <= x < 17 else 1)
            for sign in (0, 1):
                word = cli._PREFIX[2 * k + sign].tobytes()
                assert word == ("-" * sign + lead).encode().rjust(8, b"\0")
            exponent = "" if -4 <= x < 17 else f"e{x:+03d}"
            assert cli._EXPONENT[k].tobytes().replace(b"\0", b"") == exponent.encode()

    def test_digit_masks_and_point(self):
        for a in range(18):
            for b in range(18):
                mask = cli._MASK[:, 18 * a + b].astype("<u8").tobytes()
                assert mask == bytes(255 if a <= j - 3 < b else 0 for j in range(24))
                point = cli._POINT[:, 18 * a + b].astype("<u8").tobytes()
                assert point == bytes(46 if j - 3 == a and 0 < a < b else 0 for j in range(24))


def tables_handed_to_write_csv(monkeypatch, tmp_path, *argv):
    """Each (path, header, columns) a subcommand hands to write_csv."""
    calls, write = [], cli.write_csv

    def capture(path, header, columns):
        calls.append((path, header, columns))
        write(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", capture)
    assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
    assert calls
    return calls


@pytest.mark.parametrize("argv", [
    ("impurity", "--svg"),
    ("entropy",),
    ("entropy", "--regime", "exact"),
    ("amplitude", "--regime", "small"),
    ("amplitude", "--regime", "free-space"),
    ("amplitude", "--regime", "exact"),
    ("matrix-dump", "--n-modes", "600"),
    ("spectrum", "--n-modes", "3000", "--g", "0.01", "--delta", "1000"),
], ids=" ".join)
def test_files_equal_the_printf_writer(monkeypatch, tmp_path, argv):
    for path, header, columns in tables_handed_to_write_csv(monkeypatch, tmp_path / "out", *argv):
        printf_write_csv(tmp_path / "printf.csv", header, columns)
        assert path.read_bytes() == (tmp_path / "printf.csv").read_bytes(), path.name


@pytest.mark.parametrize("argv", [("impurity",), ("matrix-dump", "--n-modes", "600")],
                         ids=" ".join)
def test_few_cells_take_printf(monkeypatch, tmp_path, argv):
    for _, _, columns in tables_handed_to_write_csv(monkeypatch, tmp_path, *argv):
        values = table_of(columns)[0].astype(np.float64).ravel()
        assert cli._cells(values)[1].size <= 0.01 * values.size
