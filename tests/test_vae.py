"""Encoder/decoder contracts, mixture responsibilities, and the KL oracle."""

import math

import numpy as np
import pytest

from moerec import Tape, Tensor, grad_check
from moerec.errors import DataError, NumericError, TableLookupError
from moerec.rng import Rng
from moerec import tensor as T
from moerec.vae import (
    GmmPrior,
    VaeConfig,
    VaeGmm,
    elbo_loss,
    gmm_posterior_batch,
    init_gmm_prior,
    kl_closed_form_batch,
    log_normal_diag,
    reparameterize,
)
from moerec.verify import kl_closed_form, mc_kl_estimate


def tiny_model(seed=0, **overrides) -> VaeGmm:
    cfg = VaeConfig(n_users=6, n_items=5, d_emb=4, latent_dim=8, hidden=6, clusters=2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return VaeGmm(cfg, Rng(seed))


def random_prior(seed, clusters, dim) -> GmmPrior:
    rng = Rng(seed)
    return GmmPrior(rng.normal(clusters),
                    rng.normal(clusters * dim).reshape(clusters, dim),
                    rng.normal(clusters * dim).reshape(clusters, dim) * 0.3)


# --- encode / decode ---

def test_encode_shapes_single_pair():
    model = tiny_model()
    mu, log_var = model.encode(2, 3)
    assert mu.shape == (8,) and log_var.shape == (8,)


def test_encode_zero_weights_gives_zero_outputs():
    model = tiny_model()
    for t in (model.encoder.w1, model.encoder.b1, model.encoder.w2, model.encoder.b2):
        t.data[...] = 0.0
    mu, log_var = model.encode(1, 1)
    assert np.array_equal(mu.data, np.zeros(8))
    assert np.array_equal(log_var.data, np.zeros(8))


def test_encode_paper_scale_dim():
    model = tiny_model(d_emb=16, latent_dim=128, hidden=8)
    mu, _ = model.encode(0, 0)
    assert mu.shape == (128,)


def test_encode_out_of_range_id():
    model = tiny_model()
    with pytest.raises(TableLookupError):
        model.encode(99, 0)


def test_decode_zero_weights_is_half():
    model = tiny_model()
    for t in (model.decoder.w1, model.decoder.b1, model.decoder.w2, model.decoder.b2):
        t.data[...] = 0.0
    out = model.decode(Tensor(np.zeros(8)))
    assert out.item() == pytest.approx(0.5)


def test_decode_always_in_unit_interval():
    model = tiny_model(seed=9)
    z = Tensor(Rng(3).normal(1000 * 8).reshape(1000, 8) * 3.0)
    out = model.decode(z).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_normalized_rating_is_valid_target():
    assert 4.0 / 5.0 == pytest.approx(0.8)
    model = tiny_model()
    loss = elbo_loss(model, [0], [0], [0.8], beta=0.1, rng=Rng(0))
    assert np.isfinite(loss.item())


# --- reparameterize ---

def test_reparameterize_clamps_log_var():
    mu = Tensor(np.zeros(4))
    log_var = Tensor(np.array([-50.0, 50.0, 0.0, 3.0]))
    sample = reparameterize(mu, log_var, Rng(0))
    assert np.array_equal(sample.log_var.data, [-10.0, 10.0, 0.0, 3.0])
    sigma = np.exp(0.5 * sample.log_var.data)
    assert sigma.min() >= math.exp(-5) and sigma.max() <= math.exp(5)


def test_reparameterize_eps_zero_passes_mean():
    mu = Tensor(np.array([1.5, -2.0]))
    sample = reparameterize(mu, Tensor(np.zeros(2)), Rng(0), eps_override=0.0)
    assert np.array_equal(sample.z.data, mu.data)


def test_reparameterize_unit_sigma_identity():
    sample = reparameterize(Tensor(np.zeros(2)), Tensor(np.zeros(2)), Rng(0),
                            eps_override=np.array([1.0, -1.0]))
    assert np.array_equal(sample.z.data, [1.0, -1.0])
    # stored fields satisfy z = mu + eps * exp(log_var / 2) exactly
    assert np.array_equal(
        sample.z.data,
        sample.mu.data + sample.eps * np.exp(0.5 * sample.log_var.data))


def test_reparameterize_gradient_skips_eps():
    # with eps fixed at zero, reconstruction responds to mu only; the KL
    # term is the only path that reacts to log_var
    model = tiny_model(seed=7)
    users, items, ratings = [0, 1], [1, 2], [0.4, 0.9]

    mu0, log_var0 = model.encode(np.array(users), np.array(items))
    gamma0 = gmm_posterior_batch(model.prior, mu0.data)

    def recon_only(log_var_in):
        sample = reparameterize(mu0.detach(), log_var_in, Rng(0), eps_override=0.0)
        logit = model.decoder.forward(sample.z)[:, 0]
        return (T.softplus(logit) - logit * Tensor(ratings)).mean()

    x = Tensor(log_var0.data.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(recon_only(x))
    assert np.all(x.grad == 0.0)  # analytic: eps=0 kills the sigma path
    assert grad_check(recon_only, Tensor(log_var0.data.copy())) <= 1e-10

    def kl_only(log_var_in):
        return kl_closed_form_batch(Tensor(mu0.data), log_var_in, gamma0,
                                    model.prior).mean()

    x2 = Tensor(log_var0.data.copy(), requires_grad=True)
    with Tape() as tape:
        tape.backward(kl_only(x2))
    assert np.any(x2.grad != 0.0)  # the KL term does respond
    assert grad_check(kl_only, Tensor(log_var0.data.copy())) <= 1e-4


# --- log_normal_diag ---

def test_log_normal_standard_at_mode():
    out = log_normal_diag(Tensor([0.0]), Tensor([0.0]), Tensor([1.0]))
    assert out.item() == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_log_normal_additivity_at_mode():
    out = log_normal_diag(Tensor([3.0, -1.0]), Tensor([3.0, -1.0]), Tensor([1.0, 1.0]))
    assert out.item() == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_log_normal_per_dimension_sum():
    # independent per-dimension oracle: sum of two 1-D log densities
    def one_dim(z, m, v):
        return -0.5 * (math.log(2 * math.pi) + math.log(v) + (z - m) ** 2 / v)

    expected = one_dim(1.0, 0.0, 1.0) + one_dim(2.0, 0.0, 4.0)
    out = log_normal_diag(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]), Tensor([1.0, 4.0]))
    assert out.item() == pytest.approx(expected, abs=1e-12)


def test_log_normal_rejects_nonpositive_variance():
    with pytest.raises(NumericError):
        log_normal_diag(Tensor([0.0]), Tensor([0.0]), Tensor([0.0]))


def test_log_normal_gradient():
    mu = Tensor([0.3, -0.2])
    var = Tensor([0.8, 1.4])
    assert grad_check(lambda z: log_normal_diag(z, mu, var), Tensor([0.5, 1.0])) <= 1e-6


# --- responsibilities ---

def test_posterior_symmetric_midpoint():
    prior = GmmPrior(np.log([0.5, 0.5]),
                     np.array([[-1.0], [1.0]]),
                     np.zeros((2, 1)))
    gamma = gmm_posterior_batch(prior, np.array([[0.0]]))[0]
    assert np.allclose(gamma, [0.5, 0.5], atol=1e-12)
    assert int(np.argmax(gamma)) == 0  # tie resolves low


def test_posterior_dominant_component():
    prior = GmmPrior(np.log([1 / 3, 1 / 3, 1 / 3]),
                     np.array([[-5.0], [0.0], [5.0]]),
                     np.full((3, 1), math.log(1e-6)))
    gamma = gmm_posterior_batch(prior, np.array([[0.0]]))[0]
    assert gamma[1] > 0.999
    assert int(np.argmax(gamma)) == 1


def test_posterior_hand_computed_equal_densities():
    # pi=[0.3, 0.7], means 0 and 2, var 1, z=1: densities equal, gamma = pi
    prior = GmmPrior(np.log([0.3, 0.7]), np.array([[0.0], [2.0]]), np.zeros((2, 1)))
    gamma = gmm_posterior_batch(prior, np.array([[1.0]]))[0]
    assert np.allclose(gamma, [0.3, 0.7], atol=1e-12)


def test_posterior_sums_to_one_and_shift_invariant():
    for seed in range(10):
        prior = random_prior(seed, 4, 3)
        z = Rng(seed + 50).normal(3)
        gam = gmm_posterior_batch(prior, z[None, :])[0]
        assert abs(gam.sum() - 1.0) <= 1e-9
        # scaling all densities by a common factor = shifting all logits
        from moerec.vae import log_component_scores
        scores = log_component_scores(prior, z)[0]
        shifted = scores + 1234.5
        e = np.exp(shifted - shifted.max())
        assert np.max(np.abs(e / e.sum() - gam)) <= 1e-9
        assert int(np.argmax(shifted)) == int(np.argmax(scores))


def test_posterior_extreme_latents_stay_finite():
    prior = random_prior(3, 3, 2)
    gam = gmm_posterior_batch(prior, np.array([[500.0, -500.0]]))
    assert np.all(np.isfinite(gam)) and abs(gam.sum() - 1.0) <= 1e-9


def test_gates_tie_goes_to_the_lowest_index():
    # zero encoder weights put every latent mean at 0, the fallback row's
    # (user 6) too: components at -1 and +1 tie and the gate is 0; of
    # components at +2 and +0.5, the nearer one, 1, wins
    model = tiny_model()
    for t in (model.encoder.w1, model.encoder.b1, model.encoder.w2, model.encoder.b2):
        t.data[...] = 0.0
    users, items = np.array([0, 3, 6]), np.array([1, 4, 5])
    model.prior = GmmPrior(np.log([0.5, 0.5]), np.stack([np.full(8, -1.0), np.full(8, 1.0)]),
                           np.zeros((2, 8)))
    assert np.allclose(model.posteriors(users, items), 0.5, atol=1e-12)
    assert model.gates(users, items).tolist() == [0, 0, 0]
    model.prior = GmmPrior(np.log([0.5, 0.5]), np.stack([np.full(8, 2.0), np.full(8, 0.5)]),
                           np.zeros((2, 8)))
    assert model.gates(users, items).tolist() == [1, 1, 1]


# --- closed-form KL against analytics and Monte Carlo ---

def test_kl_reduces_to_standard_vae_at_origin():
    prior = GmmPrior.standard_normal(1, 3)
    out = kl_closed_form(Tensor(np.zeros(3)), Tensor(np.zeros(3)), np.array([1.0]), prior)
    assert out.item() == pytest.approx(0.0, abs=1e-12)


def test_kl_standard_vae_half():
    prior = GmmPrior.standard_normal(1, 1)
    out = kl_closed_form(Tensor([1.0]), Tensor([0.0]), np.array([1.0]), prior)
    assert out.item() == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_kl_matches_standard_formula_when_k1(seed):
    rng = Rng(seed)
    mu = rng.normal(8)
    log_var = rng.normal(8) * 0.5
    prior = GmmPrior.standard_normal(1, 8)
    ours = kl_closed_form(Tensor(mu), Tensor(log_var), np.array([1.0]), prior).item()
    standard = -0.5 * np.sum(1.0 + log_var - mu ** 2 - np.exp(log_var))
    assert abs(ours - standard) <= 1e-10


def test_kl_monte_carlo_standard_case():
    prior = GmmPrior.standard_normal(1, 2)
    est, se = mc_kl_estimate(np.zeros(2), np.zeros(2), prior, Rng(0), 20000)
    assert abs(est - 0.0) <= 3 * se + 1e-9


def test_kl_monte_carlo_half_case():
    prior = GmmPrior.standard_normal(1, 1)
    est, se = mc_kl_estimate(np.array([1.0]), np.array([0.0]), prior, Rng(1), 50000)
    assert abs(est - 0.5) <= 3 * se


@pytest.mark.parametrize("seed,clusters,dim", [
    (0, 1, 2), (1, 2, 2), (2, 3, 4), (3, 5, 8), (4, 3, 8),
    (5, 2, 8), (6, 4, 4), (7, 5, 2), (8, 3, 2), (9, 1, 8),
])
def test_kl_closed_form_vs_monte_carlo(seed, clusters, dim):
    rng = Rng(1000 + seed)
    prior = random_prior(seed, clusters, dim)
    mu = rng.normal(dim) * 0.8
    log_var = rng.normal(dim) * 0.4
    gamma = gmm_posterior_batch(prior, mu[None, :])[0]
    closed = kl_closed_form(Tensor(mu), Tensor(log_var), gamma, prior).item()
    est, se = mc_kl_estimate(mu, log_var, prior, Rng(seed + 177), 100_000, gamma=gamma)
    assert abs(closed - est) <= 3 * se, (closed, est, se)


def test_kl_handles_zero_gamma_entries():
    prior = random_prior(2, 3, 2)
    gamma = np.array([1.0, 0.0, 0.0])
    out = kl_closed_form(Tensor(np.zeros(2)), Tensor(np.zeros(2)), gamma, prior)
    assert np.isfinite(out.item())


def test_kl_differentiable_in_all_arguments():
    prior = random_prior(11, 3, 4)
    rng = Rng(200)
    mu0 = rng.normal(4)
    lv0 = rng.normal(4) * 0.3
    gamma = gmm_posterior_batch(prior, mu0[None, :])[0]

    assert grad_check(lambda m: kl_closed_form(m, Tensor(lv0), gamma, prior),
                      Tensor(mu0.copy())) <= 1e-4
    assert grad_check(lambda lv: kl_closed_form(Tensor(mu0), lv, gamma, prior),
                      Tensor(lv0.copy())) <= 1e-4

    def wrt_prior_mu(pm):
        p2 = GmmPrior(prior.pi_logits, pm, prior.log_var)
        return kl_closed_form(Tensor(mu0), Tensor(lv0), gamma, p2)

    assert grad_check(wrt_prior_mu, Tensor(prior.mu.data.copy())) <= 1e-4

    def wrt_pi(pl):
        p2 = GmmPrior(pl, prior.mu, prior.log_var)
        return kl_closed_form(Tensor(mu0), Tensor(lv0), gamma, p2)

    assert grad_check(wrt_pi, Tensor(prior.pi_logits.data.copy())) <= 1e-4

    def wrt_prior_lv(plv):
        p2 = GmmPrior(prior.pi_logits, prior.mu, plv)
        return kl_closed_form(Tensor(mu0), Tensor(lv0), gamma, p2)

    assert grad_check(wrt_prior_lv, Tensor(prior.log_var.data.copy())) <= 1e-4


# --- elbo loss ---

def test_elbo_beta_zero_is_pure_bce():
    model = tiny_model(seed=2)
    users, items, ratings = [0, 1, 2], [0, 1, 2], [0.2, 0.5, 0.9]
    loss = elbo_loss(model, users, items, ratings, beta=0.0, rng=Rng(5),
                     eps_override=0.0)
    mu, _ = model.encode(np.array(users), np.array(items))
    logit = model.decoder.forward(mu)[:, 0]
    expected = np.mean(np.logaddexp(0.0, logit.data) - np.array(ratings) * logit.data)
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_elbo_perfect_half_prediction_is_ln2():
    model = tiny_model()
    for t in (model.decoder.w1, model.decoder.b1, model.decoder.w2, model.decoder.b2):
        t.data[...] = 0.0  # decoder pinned at sigmoid(0) = 0.5
    loss = elbo_loss(model, [0], [0], [0.5], beta=0.0, rng=Rng(0))
    assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_elbo_rejects_out_of_range_rating():
    model = tiny_model()
    with pytest.raises(DataError):
        elbo_loss(model, [0], [0], [1.2], beta=0.1, rng=Rng(0))


def swap_param(model, name, replacement):
    """Rebind the named parameter tensor on its owning component."""
    current = model.params()[name]
    for owner in (model.tables, model.encoder, model.decoder, model.prior):
        for attr, value in vars(owner).items():
            if value is current:
                setattr(owner, attr, replacement)
                return
    raise KeyError(name)


def test_elbo_gradients_all_parameter_groups():
    model = tiny_model(seed=13)
    users = np.array([0, 1, 2, 3])
    items = np.array([1, 2, 3, 4])
    ratings = np.array([0.2, 0.4, 0.6, 0.9])

    mu0, log_var0 = model.encode(users, items)
    sample0 = reparameterize(mu0, log_var0, Rng(31))
    eps = sample0.eps
    gamma = gmm_posterior_batch(model.prior, sample0.z.data)

    # eps and gamma are pinned so the loss is the deterministic function the
    # analytic gradient claims to differentiate (gamma is a constant by design)
    def loss(_x):
        return elbo_loss(model, users, items, ratings, beta=0.1, rng=Rng(31),
                         eps_override=eps, gamma_override=gamma)

    for name, param in model.params().items():
        x = Tensor(param.data.copy())
        swap_param(model, name, x)
        try:
            err = grad_check(loss, x, coords=range(min(x.size, 24)))
        finally:
            swap_param(model, name, param)
        assert err <= 1e-4, f"{name}: {err}"


def test_stage1_step_tape_records():
    # a joint-phase step as train_stage1 records it: the ELBO with the KL
    # term, then the gradient-accumulation scale (61 records as op chains)
    model = tiny_model(seed=13)
    model.prior = random_prior(5, 3, 8)
    with Tape() as tape:
        loss = elbo_loss(model, [0, 1, 2, 3], [1, 2, 3, 4], [0.2, 0.4, 0.6, 0.9],
                         beta=0.1, rng=Rng(31))
        tape.backward(loss * 1.0)
    assert len(tape.records) <= 15
    assert all(p.grad is not None for p in model.params().values())


def test_fused_elbo_matches_its_reference_chain():
    from moerec.verify import fused_elbo_gap, verify_vae
    for beta in (0.0, 0.1):
        same, gap = fused_elbo_gap(4, beta)
        assert same and gap == 0.0, (beta, gap)
    assert all(check.passed for check in verify_vae())


# --- prior initialization ---

def test_init_gmm_single_cluster_is_mean():
    latents = Rng(3).normal(40).reshape(20, 2)
    prior = init_gmm_prior(latents, 1, Rng(0))
    assert np.allclose(prior.mu.data[0], latents.mean(axis=0), atol=1e-12)
    assert np.allclose(prior.pi(), [1.0])


def exhaustive_two_means(points):
    # optimal 2-partition by within-cluster squared error, brute force
    n = len(points)
    best, best_sse = None, np.inf
    for mask_bits in range(1, 2 ** n - 1):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        a, b = points[mask], points[~mask]
        sse = ((a - a.mean(0)) ** 2).sum() + ((b - b.mean(0)) ** 2).sum()
        if sse < best_sse:
            best_sse, best = sse, (a.mean(0), b.mean(0))
    return best


def test_init_gmm_two_blobs():
    rng = Rng(8)
    blob_a = rng.normal(16).reshape(8, 2) * 0.05 + np.array([3.0, 0.0])
    blob_b = rng.normal(16).reshape(8, 2) * 0.05 + np.array([-3.0, 0.0])
    points = np.vstack([blob_a, blob_b])
    prior = init_gmm_prior(points, 2, Rng(4))
    optimal = sorted(exhaustive_two_means(points), key=lambda c: c[0])
    got = sorted([prior.mu.data[0], prior.mu.data[1]], key=lambda c: c[0])
    for ours, ref in zip(got, optimal):
        assert np.linalg.norm(ours - ref) < 0.1
    assert np.all(prior.var() >= 1e-4)


def test_init_gmm_needs_enough_points():
    from moerec.errors import TrainingError
    with pytest.raises(TrainingError):
        init_gmm_prior(np.zeros((5, 2)), 3, Rng(0))  # 5 identical points


def test_gate_count_matches_cluster_setting():
    for clusters in (2, 3):
        model = tiny_model(clusters=clusters)
        model.prior = GmmPrior.standard_normal(clusters, model.config.latent_dim)
        assert model.prior.clusters == clusters


def test_prior_weights_normalized_and_positive():
    for seed in range(5):
        prior = random_prior(seed, 4, 3)
        pi = prior.pi()
        assert np.all(pi > 0)
        assert abs(pi.sum() - 1.0) <= 1e-9
        assert np.all(prior.var() > 0)
