"""A distill step with every net run on its own layers: the reference for the
member-stacked joint pass of ``distill.train_student``.

Here the teachers' net and the student each run their own forward, and form
their own member weights, at x for the pair-gap gradient and again at
x + eps for the loss, as separate passes.
"""

import numpy as np

from distilab.distill import FACTORED, kd_loss, one_to_one_loss
from distilab.nets import build_be, build_plain
from distilab.optim import one_hot
from distilab.perturb import _normalize_rows, _pair_logits_grad, build_perturbation, \
    default_gamma, draw_pairs
from distilab.seeding import rng_stream


def pair_gap_grad(teachers, student, x, pairs):
    """d/dx of the pair gap (the teachers' term alone without a student),
    each net forward and backward on its own; each row's gradient summed as
    teacher i, teacher j, student i, student j."""
    nets = [teachers] + ([] if student is None else [student])
    passes = [net.forward_kept(x) for net in nets]
    g_logits = _pair_logits_grad(np.concatenate([kept[-1][2] for kept in passes]),
                                 pairs, len(nets[0]))
    rows = np.arange(len(x))
    grad = np.zeros_like(x)
    for net, kept, g in zip(nets, passes, np.split(g_logits, len(nets))):
        g = net.backward(kept, g, False)
        grad = grad + g[pairs[:, 0], rows] + g[pairs[:, 1], rows]
    return grad


def last_step(teachers, spec, train, cfg, batches, update):
    """(eps, teacher logits, student logits, parameter gradients) of the last
    of the steps of ``train_student(teachers, spec, train, cfg)`` on the row
    arrays batches, for a kd or factored student, with update(student)
    applied in place of each earlier step's update: the student built as
    train_student builds it, each perturbation drawn from the same streams."""
    rng = rng_stream(cfg.optim.seed, "init")
    if cfg.method in FACTORED:
        init = "ones" if cfg.method == "latentbe" else cfg.student_init
        student = build_be(spec, rng, init, members=len(teachers))
    else:
        student = build_plain(spec, rng)
    gamma = cfg.gamma if cfg.gamma is not None else default_gamma(train.x)
    noise_rng = rng_stream(cfg.optim.seed, "guidance-vectors")
    index_rng = rng_stream(cfg.optim.seed, "pair-sampling")
    for step, rows in enumerate(batches):
        if step:
            update(student)
        x = train.x[rows]
        if cfg.perturbation in ("tdiv", "tdiv_sdiv"):
            pairs = draw_pairs(index_rng, len(teachers), len(x))
            pair_student = student if cfg.perturbation == "tdiv_sdiv" else None
            eps = _normalize_rows(pair_gap_grad(teachers, pair_student, x, pairs), gamma)
        else:
            eps = build_perturbation(cfg.perturbation, teachers, student, x, gamma, cfg.tau,
                                     noise_rng, index_rng).epsilon
    t_logits = teachers.forward(x + eps)
    kept = student.forward_kept(x + eps)
    logits = kept[-1][2]
    if cfg.method in FACTORED:
        g = one_to_one_loss(t_logits, logits, cfg.tau)[1]
    else:
        g = kd_loss(t_logits, logits, one_hot(train.y[rows], spec.num_classes), cfg)[1]
    return eps, t_logits, logits, student.backward(kept, g, True)
