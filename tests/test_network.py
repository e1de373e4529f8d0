import json

import numpy as np
import pytest

from conftest import random_cloud
from oracles import finite_difference, oracle_knn, oracle_matmul, oracle_sampler, relative_errors
from spseg import (
    LabelSet,
    ModelConfig,
    Params,
    ParseError,
    ValidationError,
    aggregate_superpoint_features,
    backward,
    build_index,
    classify,
    consistency_loss,
    cross_entropy_loss,
    edge_head,
    edge_loss,
    extract_features,
    forward,
    from_membership,
    init_params,
    load_params,
    save_params,
)
from spseg.labels import EdgeLabels
from spseg.network import network_input

CFG = ModelConfig(width1=4, c_hidden=6, num_classes=3, ep_hidden=6)


def zero_params(cfg=CFG):
    return init_params(cfg, seed=0).from_vector(np.zeros(init_params(cfg, 0).to_vector().size))


def small_setup(rng, n=24, cfg=CFG):
    cloud = random_cloud(rng, n)
    nbrs = build_index(cloud).knn_table(4)
    mem = rng.integers(0, 3, size=n)
    mem[rng.integers(0, n, size=2)] = -1
    out = np.full(n, -1, dtype=np.int64)
    cl = mem >= 0
    _, inv = np.unique(mem[cl], return_inverse=True)
    out[cl] = inv
    sp = from_membership(out)
    return cloud, nbrs, sp


class TestExtractor:
    def test_zero_params_zero_features(self, rng):
        cloud, nbrs, _ = small_setup(rng)
        f = extract_features(cloud, nbrs, zero_params())
        assert (f == 0).all()

    def test_x_coordinate_passthrough(self, rng):
        cloud, nbrs, _ = small_setup(rng)
        p = zero_params()
        # Channel 0 of layer 1 carries centered-x plus a bias that keeps the
        # relus inactive; layer 2 channel 0 passes it straight through.
        p.w1[0, 0] = 1.0
        p.b1[0] = 10.0
        p.w2[0, 0] = 1.0
        f = extract_features(cloud, nbrs, p)
        centered_x = network_input(cloud)[:, 0]
        assert np.allclose(f[:, 0], centered_x + 10.0, atol=1e-12)

    def test_neighbor_mean_matches_oracle_knn(self, rng):
        cloud, nbrs, _ = small_setup(rng, n=30)
        p = init_params(CFG, seed=3)
        rec = forward(cloud, nbrs, p)
        for i in range(cloud.n):
            ids = oracle_knn(cloud.positions, i, nbrs.shape[1])
            assert ids == nbrs[i].tolist()
            expected = rec.h1[ids].mean(axis=0)
            assert np.allclose(rec.m[i], expected, atol=1e-12)


class TestSmoothing:
    def test_constant_group_scales(self, rng):
        n, k = 12, 5
        sp = from_membership(np.zeros(n, dtype=np.int64))
        v = rng.normal(size=6)
        feats = np.tile(v, (n, 1))
        g = aggregate_superpoint_features(feats, sp, k, seed=9)
        assert np.allclose(g, v * (k + 1) / 2.0, atol=1e-12)

    def test_singleton_group(self, rng):
        sp = from_membership(np.arange(4, dtype=np.int64))
        feats = rng.normal(size=(4, 6))
        g = aggregate_superpoint_features(feats, sp, 7, seed=1)
        assert np.allclose(g, feats * 4.0, atol=1e-12)

    def test_unclustered_pass_through(self, rng):
        sp = from_membership(np.array([0, 0, -1], dtype=np.int64))
        feats = rng.normal(size=(3, 5))
        g = aggregate_superpoint_features(feats, sp, 3, seed=2)
        assert (g[2] == feats[2]).all()

    def test_deterministic_and_matches_sampler_oracle(self, rng):
        cloud, nbrs, sp = small_setup(rng)
        feats = rng.normal(size=(cloud.n, 6))
        a = aggregate_superpoint_features(feats, sp, 6, seed=42)
        b = aggregate_superpoint_features(feats, sp, 6, seed=42)
        assert (a == b).all()
        samples = oracle_sampler([g.tolist() for g in sp.groups], sp.membership.tolist(), 6, 42)
        expected = feats.copy()
        cl = sp.membership >= 0
        expected[cl] = (feats[cl] + feats[samples[cl]].sum(axis=1)) / 2.0
        assert np.allclose(a, expected, atol=1e-12)

    def test_enumerated_sample_coefficients(self, rng):
        # dg_i/df_j = ([i==j] + count of j among i's draws) / 2.
        n, k = 8, 4
        sp = from_membership(np.zeros(n, dtype=np.int64))
        samples = oracle_sampler([list(range(n))], [0] * n, k, seed=5)
        feats = rng.normal(size=(n, 2))
        i = 3
        for j in range(n):
            def probe(v):
                f2 = feats.copy()
                f2[j, 0] = v
                return aggregate_superpoint_features(f2, sp, k, seed=5)[i, 0]

            h = 1e-6
            num = (probe(feats[j, 0] + h) - probe(feats[j, 0] - h)) / (2 * h)
            coeff = ((1 if i == j else 0) + int((samples[i] == j).sum())) / 2.0
            assert abs(num - coeff) < 1e-6

    def test_scaling_through_classifier_with_zero_bias(self, rng):
        n, k = 10, 6
        sp = from_membership(np.repeat([0, 1], 5).astype(np.int64))
        v0, v1 = rng.normal(size=CFG.c_hidden), rng.normal(size=CFG.c_hidden)
        feats = np.concatenate([np.tile(v0, (5, 1)), np.tile(v1, (5, 1))])
        p = init_params(CFG, seed=4)
        p.bc[:] = 0.0
        lhs = classify(aggregate_superpoint_features(feats, sp, k, seed=0), p)
        rhs = (k + 1) / 2.0 * classify(feats, p)
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestHeads:
    def test_classify_zero_params(self, rng):
        x = rng.normal(size=(7, CFG.c_hidden))
        assert (classify(x, zero_params()) == 0).all()

    def test_classify_hand_case(self):
        p = zero_params(ModelConfig(width1=4, c_hidden=2, num_classes=2, ep_hidden=6))
        p.wc[:] = [[1.0, 2.0], [3.0, 4.0]]
        p.bc[:] = [0.5, -0.5]
        x = np.array([[2.0, -1.0]])
        out = classify(x, p)
        assert np.allclose(out, [[2 * 1 + -1 * 3 + 0.5, 2 * 2 + -1 * 4 - 0.5]])

    def test_classify_matches_matmul_oracle(self, rng):
        p = init_params(CFG, seed=8)
        x = rng.normal(size=(9, CFG.c_hidden))
        expected = oracle_matmul(x, p.wc) + p.bc
        assert np.abs(classify(x, p) - expected).max() < 1e-12

    def test_edge_head_zero_params_half(self, rng):
        x = rng.normal(size=(5, CFG.num_classes))
        assert np.allclose(edge_head(x, zero_params()), 0.5)

    def test_edge_head_saturates_with_big_bias(self, rng):
        p = zero_params()
        p.be2[:] = 20.0
        e = edge_head(rng.normal(size=(5, CFG.num_classes)), p)
        assert np.all(np.abs(e - 1.0) < 1e-8)

    def test_edge_head_outputs_strictly_inside_unit(self, rng):
        p = init_params(CFG, seed=1)
        p.be2[:] = 800.0  # force saturation; clip keeps values inside (0, 1)
        e = edge_head(rng.normal(size=(6, CFG.num_classes)), p)
        assert (e > 0).all() and (e < 1).all()

    def test_edge_head_matches_scalar_oracle(self, rng):
        import math

        p = init_params(CFG, seed=11)
        x = rng.normal(size=(6, CFG.num_classes))
        e = edge_head(x, p)
        for i in range(6):
            z1 = [sum(x[i][a] * p.we1[a][b] for a in range(CFG.num_classes)) + p.be1[b] for b in range(6)]
            a1 = [v if v >= 0 else 0.01 * v for v in z1]
            z2 = [sum(a1[a] * p.we2[a][b] for a in range(6)) + p.be2[b] for b in range(2)]
            sig = [1.0 / (1.0 + math.exp(-v)) for v in z2]
            assert max(abs(e[i][c] - sig[c]) for c in range(2)) < 1e-12


class TestBackward:
    def test_requires_upstream(self, rng):
        cloud, nbrs, sp = small_setup(rng)
        p = init_params(CFG, seed=0)
        rec = forward(cloud, nbrs, p, sp=sp)
        with pytest.raises(ValidationError):
            backward(rec, p)
        with pytest.raises(ValidationError):
            backward(None, p, d_x=np.zeros((1, 1)))

    def test_zero_upstream_zero_grads(self, rng):
        cloud, nbrs, sp = small_setup(rng)
        p = init_params(CFG, seed=0)
        rec = forward(cloud, nbrs, p, sp=sp, k_smooth=4, seed=1)
        g = backward(rec, p, d_x=np.zeros_like(rec.x), d_e=np.zeros_like(rec.e))
        assert (g.to_vector() == 0).all()

    def test_full_model_gradients_match_finite_differences(self, rng):
        cloud, nbrs, sp = small_setup(rng, n=20)
        labels = LabelSet.full(rng.integers(0, CFG.num_classes, size=cloud.n), CFG.num_classes)
        edges = EdgeLabels(is_edge=rng.random(cloud.n) < 0.4)
        template = init_params(CFG, seed=7)
        vec0 = template.to_vector()

        def total(vec):
            p = template.from_vector(vec)
            rec = forward(cloud, nbrs, p, sp=sp, k_smooth=4, seed=3)
            seg = cross_entropy_loss(rec.x, labels)
            edg = edge_loss(rec.e, edges)
            con = consistency_loss(rec.x, sp, 4, seed=5)
            return seg.value + edg.value + con.value

        p = template.from_vector(vec0)
        rec = forward(cloud, nbrs, p, sp=sp, k_smooth=4, seed=3)
        seg = cross_entropy_loss(rec.x, labels)
        edg = edge_loss(rec.e, edges)
        con = consistency_loss(rec.x, sp, 4, seed=5)
        analytic = backward(rec, p, d_x=seg.grad + con.grad, d_e=edg.grad).to_vector()
        numeric = finite_difference(total, vec0, h=1e-5)
        assert relative_errors(analytic, numeric).max() < 1e-4

    def test_forward_deterministic(self, rng):
        cloud, nbrs, sp = small_setup(rng)
        p = init_params(CFG, seed=2)
        a = forward(cloud, nbrs, p, sp=sp, k_smooth=5, seed=7)
        b = forward(cloud, nbrs, p, sp=sp, k_smooth=5, seed=7)
        assert (a.x == b.x).all()
        assert (a.e == b.e).all()
        assert (a.samples == b.samples).all()


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        p = init_params(CFG, seed=13)
        path = str(tmp_path / "params.json")
        save_params(p, path)
        q = load_params(path)
        assert (p.to_vector() == q.to_vector()).all()

    def test_rejects_wrong_format(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write('{"format": "other"}')
        with pytest.raises(ValidationError):
            load_params(path)

    def test_shape_mismatch_rejected(self, rng):
        p = init_params(CFG, seed=0)
        with pytest.raises(ValidationError):
            p.from_vector(np.zeros(p.to_vector().size + 1))


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def _drop(doc, keys):
    for key in keys[:-1]:
        doc = doc[key]
    del doc[keys[-1]]


# Each case edits a valid checkpoint of CFG (width1=4, c_hidden=6, num_classes=3).
MALFORMED_CHECKPOINTS = {
    "top_level_list": lambda doc: [doc],
    "no_arrays": lambda doc: _drop(doc, ["arrays"]),
    "arrays_list": lambda doc: _set(doc, ["arrays"], []),
    "entry_not_object": lambda doc: _set(doc, ["arrays", "b1"], [0.0] * 4),
    "no_data": lambda doc: _drop(doc, ["arrays", "b1", "data"]),
    "data_not_list": lambda doc: _set(doc, ["arrays", "b1", "data"], "0 0 0 0"),
    "data_string_value": lambda doc: _set(doc, ["arrays", "b1", "data"], [0.0, 0.0, "x", 0.0]),
    "data_bool_value": lambda doc: _set(doc, ["arrays", "b1", "data"], [0.0, 0.0, True, 0.0]),
    "data_nested": lambda doc: _set(doc, ["arrays", "b1", "data"], [[0.0, 0.0], [0.0, 0.0]]),
    "no_shape": lambda doc: _drop(doc, ["arrays", "b1", "shape"]),
    "shape_float": lambda doc: _set(doc, ["arrays", "b1", "shape"], [4.0]),
    "shape_negative": lambda doc: _set(doc, ["arrays", "b1", "shape"], [-4]),
    "size_mismatch": lambda doc: _set(doc, ["arrays", "b1", "shape"], [5]),
    "w1_one_dimensional": lambda doc: _set(doc, ["arrays", "w1", "shape"], [24]),
    "w2_rows_not_twice_w1": lambda doc: _set(doc, ["arrays", "w2"], {"shape": [9, 6], "data": [0.0] * 54}),
    "bias_too_long": lambda doc: _set(doc, ["arrays", "bc"], {"shape": [4], "data": [0.0] * 4}),
    "wrong_input_dim": lambda doc: _set(doc, ["arrays", "w1"], {"shape": [5, 4], "data": [0.0] * 20}),
}


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_parse_error(self, tmp_path, case):
        path = str(tmp_path / "params.json")
        save_params(init_params(CFG, seed=1), path)
        doc = json.load(open(path))
        edited = MALFORMED_CHECKPOINTS[case](doc)
        with open(path, "w") as fh:
            json.dump(doc if edited is None else edited, fh)
        with pytest.raises(ParseError):
            load_params(path)

    def test_shapes_of_every_model_config_load(self, tmp_path):
        for cfg in (CFG, ModelConfig(), ModelConfig(width1=1, c_hidden=1, num_classes=2, ep_hidden=1)):
            path = str(tmp_path / "params.json")
            save_params(init_params(cfg, seed=2), path)
            assert load_params(path).config == cfg
