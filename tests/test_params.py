import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circadia import (
    BiasedCosine,
    Cosine,
    Custom,
    PolynomialEven,
    ReducedCircuit,
    SICircuit,
    ValidationError,
    beta_of,
    get_constants,
    load_circuit,
    reduce,
)
from circadia.params import read_circuit

from conftest import circuit_payload


def test_equal_capacitances_give_unit_kappa():
    si = SICircuit(capacitance_C=2e-13, capacitance_Cp=2e-13,
                   inductance_L=5e-9, josephson_energy_EJ=1e-24)
    rc, _ = reduce(si)
    assert rc.kappa == pytest.approx(1.0, rel=1e-12)


def test_removed_parasitic_branch_is_kappa_zero_and_flags_infinities():
    si = SICircuit(capacitance_C=1e-12, capacitance_Cp=0.0,
                   inductance_L=1e-8, josephson_energy_EJ=0.0)
    rc, scales = reduce(si)
    assert rc.kappa == 0.0
    assert rc.reduced
    assert scales.reduced
    assert math.isinf(scales.omega_r_prime)
    assert math.isinf(scales.Phi_ZPF)
    assert math.isinf(scales.E_Cp)


def test_beta_unity_at_the_critical_inductance():
    k = get_constants()
    L = 3e-9
    ej = 1.0 / (L * (2.0 * math.pi / k.Phi_Q) ** 2)
    si = SICircuit(capacitance_C=1e-12, capacitance_Cp=0.0,
                   inductance_L=L, josephson_energy_EJ=ej)
    assert beta_of(si) == pytest.approx(1.0, rel=1e-12)
    rc, _ = reduce(si)
    assert rc.beta == pytest.approx(1.0, rel=1e-12)


def test_beta_both_formulas_agree_on_an_arbitrary_circuit():
    si = SICircuit(capacitance_C=6.4e-14, capacitance_Cp=1.1e-16,
                   inductance_L=8.2e-9, josephson_energy_EJ=3.7e-24)
    rc, _ = reduce(si)
    # direct definition L*EJ*(2 pi/Phi_Q)^2 against lambdaJ/xi^2
    assert beta_of(si) == pytest.approx(rc.lambdaJ / rc.xi**2, rel=1e-12)
    assert rc.beta == pytest.approx(beta_of(si), rel=1e-12)


def test_beta_of_is_linear_in_inductance():
    base = dict(capacitance_C=1e-12, capacitance_Cp=0.0,
                josephson_energy_EJ=2e-24)
    b1 = beta_of(SICircuit(inductance_L=4e-9, **base))
    b2 = beta_of(SICircuit(inductance_L=8e-9, **base))
    assert b2 == pytest.approx(2.0 * b1, rel=1e-12)
    assert beta_of(SICircuit(inductance_L=4e-9, capacitance_C=1e-12,
                             capacitance_Cp=0.0, josephson_energy_EJ=0.0)) == 0.0


def test_derived_scales_match_their_definitions():
    k = get_constants()
    C, Cp, L = 5e-13, 3e-14, 6e-9
    si = SICircuit(capacitance_C=C, capacitance_Cp=Cp, inductance_L=L,
                   josephson_energy_EJ=1e-24)
    rc, s = reduce(si)
    assert s.omega_C == pytest.approx(1.0 / math.sqrt(L * C), rel=1e-12)
    assert s.omega_r_prime == pytest.approx(1.0 / math.sqrt(L * Cp), rel=1e-12)
    assert s.E_C == pytest.approx(4.0 * k.e**2 / C, rel=1e-12)
    assert s.E_C == pytest.approx(rc.kappa**4 * s.E_Cp, rel=1e-12)
    assert s.Phi_C == pytest.approx((k.hbar**2 * L / C) ** 0.25, rel=1e-12)
    assert rc.kappa == pytest.approx((Cp / C) ** 0.25, rel=1e-12)
    assert rc.xi == pytest.approx(k.hbar * s.omega_C / s.E_C, rel=1e-12)


@given(
    c=st.floats(1e-15, 1e-10),
    cp_ratio=st.floats(1e-6, 1.0),
    el=st.floats(1e-10, 1e-6),
    # floor keeps beta intermediates far above the denormal range, where
    # the two beta formulas legitimately diverge past the package check
    ej=st.one_of(st.just(0.0), st.floats(1e-26, 1e-21)),
    factor=st.floats(0.01, 100.0),
)
def test_reduce_identities_hold_over_random_circuits(c, cp_ratio, el, ej,
                                                     factor):
    si = SICircuit(capacitance_C=c, capacitance_Cp=cp_ratio * c,
                   inductance_L=el, josephson_energy_EJ=ej)
    rc, scales = reduce(si)
    assert rc.beta == pytest.approx(rc.lambdaJ / rc.xi**2, rel=1e-12)
    assert scales.E_C == pytest.approx(rc.kappa**4 * scales.E_Cp, rel=1e-12)
    # kappa depends only on the capacitance ratio
    scaled = SICircuit(capacitance_C=factor * c,
                       capacitance_Cp=factor * cp_ratio * c,
                       inductance_L=el, josephson_energy_EJ=ej)
    rc2, _ = reduce(scaled)
    assert rc2.kappa == pytest.approx(rc.kappa, rel=1e-12)


@pytest.mark.parametrize("field,value", [
    ("capacitance_C", 0.0),
    ("capacitance_C", -1e-12),
    ("capacitance_Cp", -1e-15),
    ("inductance_L", 0.0),
    ("josephson_energy_EJ", -1e-24),
    ("gate_charge_ng", 1.0),
    ("gate_charge_ng", -0.2),
    ("capacitance_C", float("nan")),
    ("inductance_L", float("inf")),
])
def test_si_validation_names_the_offending_field(field, value):
    kwargs = dict(capacitance_C=1e-12, capacitance_Cp=1e-14,
                  inductance_L=1e-8, josephson_energy_EJ=1e-24,
                  gate_charge_ng=0.0)
    kwargs[field] = value
    with pytest.raises(ValidationError, match=field):
        SICircuit(**kwargs)


@pytest.mark.parametrize("field, value, message", [
    ("kappa", -0.1, "kappa must be >= 0"),
    ("xi", 0.0, "xi must be > 0"),
    ("lambdaJ", -0.5, "lambdaJ must be >= 0"),
    ("ng", 1.0, "ng must lie in"),
    ("ng", -0.25, "ng must lie in"),
])
def test_reduced_circuit_refuses_out_of_range_fields(field, value, message):
    fields = dict(kappa=0.5, xi=1.0, lambdaJ=0.0, beta=0.0, ng=0.0)
    fields[field] = value
    with pytest.raises(ValidationError, match=message):
        ReducedCircuit(**fields)


def test_reduced_circuit_rejects_inconsistent_beta():
    with pytest.raises(ValidationError, match="beta"):
        ReducedCircuit(kappa=0.5, xi=1.0, lambdaJ=0.5, beta=0.3)


def test_from_ratios_fills_beta():
    rc = ReducedCircuit.from_ratios(0.5, 10.0, 5.0, ng=0.25)
    assert rc.beta == pytest.approx(0.05, rel=1e-12)
    assert rc.ng == 0.25
    assert not rc.reduced


def test_load_circuit_reads_joules_and_ghz(tmp_path):
    payload = circuit_payload(0.5, 1.0, 0.5, ng=0.125)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    si = load_circuit(str(path))
    rc, _ = reduce(si)
    assert rc.kappa == pytest.approx(0.5, rel=1e-12)
    assert rc.xi == pytest.approx(1.0, rel=1e-12)
    assert rc.lambdaJ == pytest.approx(0.5, rel=1e-12)
    assert si.gate_charge_ng == 0.125

    k = get_constants()
    ghz = payload.pop("EJ_J") / (k.h * 1e9)
    payload["EJ_GHz"] = ghz
    path2 = tmp_path / "c2.json"
    path2.write_text(json.dumps(payload))
    si2 = load_circuit(str(path2))
    assert si2.josephson_energy_EJ == pytest.approx(
        si.josephson_energy_EJ, rel=1e-12)


def test_load_circuit_rejects_missing_keys_and_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"C_F": 1e-12, "Cp_F": 0.0, "L_H": 1e-8}')
    with pytest.raises(ValidationError, match="EJ_J"):
        load_circuit(str(path))
    path.write_text('{"C_F": 1e-12, "Cp_F": 0.0, "EJ_J": 1e-24}')
    with pytest.raises(ValidationError, match="missing 'L_H'"):
        load_circuit(str(path))
    path.write_text("not json at all")
    with pytest.raises(ValidationError, match="not JSON"):
        load_circuit(str(path))
    path.write_text('[1, 2, 3]')
    with pytest.raises(ValidationError, match="JSON object"):
        load_circuit(str(path))


MALFORMED = [
    ({"C_F": "abc"}, "C_F"),
    ({"Cp_F": [1e-14]}, "Cp_F"),
    ({"L_H": None}, "L_H"),
    ({"EJ_J": "x"}, "EJ_J"),
    ({"EJ_GHz": {"f": 1.0}}, "EJ_GHz"),
    ({"ng": "x"}, "ng"),
    ({"potential": {"kind": "biased_cosine", "phi_ext": "abc"}}, "phi_ext"),
    ({"potential": {"kind": "quadratic", "curvature": [1.0]}}, "curvature"),
    ({"potential": {"kind": "polynomial_even", "coeffs": 5}}, "coeffs"),
    ({"potential": {"kind": "polynomial_even", "coeffs": [0.0, "b"]}},
     "coeffs"),
]


@pytest.mark.parametrize("patch,key", MALFORMED, ids=[k for _, k in MALFORMED])
def test_malformed_numeric_field_names_its_key(tmp_path, patch, key):
    payload = circuit_payload(0.5, 1.0, 0.5)
    if "EJ_GHz" in patch:
        del payload["EJ_J"]
    payload.update(patch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match=f"'{key}'"):
        read_circuit(str(path))


def _cosine_table(path):
    phis = [-8.0 + 0.04 * i for i in range(401)]
    path.write_text("# phi,u\n" + "".join(f"{q!r},{-math.cos(q)!r}\n"
                                          for q in phis))
    return str(path)


@pytest.mark.parametrize("spec,kind,attrs", [
    ({"kind": "cosine"}, Cosine, {}),
    ("cosine", Cosine, {}),
    ({"kind": "biased_cosine", "phi_ext": 0.3}, BiasedCosine,
     {"phi_ext": 0.3}),
    ({"kind": "quadratic", "curvature": 2.0}, PolynomialEven,
     {"coeffs": (0.0, 1.0)}),
    ({"kind": "polynomial_even", "coeffs": [0.0, 0.5, 0.01]}, PolynomialEven,
     {"coeffs": (0.0, 0.5, 0.01)}),
    ({"kind": "custom_csv"}, Custom, {"support": (-8.0, 8.0)}),
    (None, Cosine, {}),
], ids=["cosine", "shorthand", "biased_cosine", "quadratic",
        "polynomial_even", "custom_csv", "absent"])
def test_reader_builds_each_potential_kind(write_circuit, tmp_path, spec,
                                           kind, attrs):
    if kind is Custom:
        spec = dict(spec, path=_cosine_table(tmp_path / "u.csv"))
    path = write_circuit("c.json", 0.5, 1.0, 0.5, potential=spec)
    rc, p = read_circuit(path)
    assert rc == reduce(load_circuit(path))[0]
    assert type(p) is kind
    for name, value in attrs.items():
        assert getattr(p, name) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("spec,match", [
    ({"kind": "sawtooth"}, "unknown potential kind"),
    (["cosine"], "string or object"),
    ({"kind": "custom_csv"}, "needs a 'path'"),
])
def test_reader_rejects_bad_potential_specs(write_circuit, spec, match):
    path = write_circuit("c.json", 0.5, 1.0, 0.5, potential=spec)
    with pytest.raises(ValidationError, match=match):
        read_circuit(path)
