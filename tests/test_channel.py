import math
import random
import sys

import pytest

from dpskdiv import (BranchParams, ConfigError, Detector, DiversityConfig, DopplerSpec,
                     SpectrumKind)
from ends import range_ends


def cfg_of(*pairs, detector=Detector.OPTIMUM):
    return DiversityConfig(tuple(BranchParams(r, g) for r, g in pairs), detector)


def test_valid_config_passes_through():
    branch = BranchParams(0.975, 15.85)
    cfg = DiversityConfig((branch,), Detector.OPTIMUM)
    assert cfg.branches == (branch,)
    assert cfg.detector is Detector.OPTIMUM


def test_empty_branch_list():
    with pytest.raises(ConfigError, match="L >= 1"):
        DiversityConfig((), Detector.OPTIMUM)


def test_rho_out_of_range_names_branch():
    with pytest.raises(ConfigError, match="branch 0"):
        cfg_of((1.2, 1.0))


def test_negative_gamma_names_branch():
    with pytest.raises(ConfigError, match="branch 1"):
        cfg_of((0.5, 1.0), (0.5, -2.0))


def test_nan_rejected():
    with pytest.raises(ConfigError, match="branch 0"):
        cfg_of((math.nan, 1.0))
    with pytest.raises(ConfigError, match="branch 0"):
        cfg_of((0.5, math.nan))


def test_gamma_limit_names_branch():
    # 4*gamma must be finite: the poles and the simulator's coefficients are
    # sums of up to ~2 gamma, and exact_bep reads 0 or nan from ~9e307
    top = sys.float_info.max / 4
    assert cfg_of((0.5, 1.0), (0.5, top)).branches[1].gamma == top
    with pytest.raises(ConfigError, match="branch 1"):
        cfg_of((0.5, 1.0), (0.5, math.nextafter(top, math.inf)))


def test_bad_detector_rejected():
    with pytest.raises(ConfigError):
        DiversityConfig((BranchParams(0.5, 1.0),), "optimum")


def test_branches_stored_as_tuple():
    cfg = DiversityConfig([BranchParams(0.1, 1.0)], Detector.SUBOPTIMUM)
    assert isinstance(cfg.branches, tuple)


def test_bad_doppler_spec_rejected_when_built():
    table = ((0.0, 1.0), (2.0, 0.5))
    with pytest.raises(ConfigError, match="fdT"):
        DopplerSpec(SpectrumKind.JAKES, -1.0)
    with pytest.raises(ConfigError, match="covariance table"):
        DopplerSpec(SpectrumKind.JAKES, 0.1, table)


def test_doppler_table_stored_as_float_pairs():
    rows = [[0, 1], [2, 0.5]]  # a list table, changed after the checks
    spec = DopplerSpec(SpectrumKind.TABULATED, 0.0, rows)
    rows[1][1] = 7
    assert spec.table == ((0.0, 1.0), (2.0, 0.5))
    assert all(type(x) is float for pair in spec.table for x in pair)
    assert hash(spec) == hash(DopplerSpec(SpectrumKind.TABULATED, 0.0, spec.table))


@pytest.mark.parametrize("fdt", [0.3, 1e300])
def test_tabulated_spectrum_rejects_nonzero_fdt(fdt):
    # the table fixes the covariance, so an fdT would be ignored
    table = ((0.0, 1.0), (2.0, 0.5))
    with pytest.raises(ConfigError, match="fdT"):
        DopplerSpec(SpectrumKind.TABULATED, fdt, table)
    assert DopplerSpec(SpectrumKind.TABULATED, 0.0, table).fdt == 0.0


def test_all_in_range_configs_validate():
    rng = random.Random(19)
    cases = [[(r, g)] for r in range_ends(1.0) for g in range_ends(1e6)]
    cases += [[(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1e6)) for _ in range(rng.randint(1, 6))]
              for _ in range(100)]
    for pairs in cases:
        for det in Detector:
            cfg = cfg_of(*pairs, detector=det)
            assert cfg.branches == tuple(BranchParams(r, g) for r, g in pairs)
            assert cfg.detector is det
