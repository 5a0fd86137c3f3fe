"""Model configurations and workload sizes the benchmark runs.

DESK_MODEL and CHECK_MODEL are the desk-scale and gradient-check networks of
the acceptance suite (tests/test_acceptance.py).  `SIZES["full"]` is what the
benchmark measures; `SIZES["smoke"]` shrinks every workload so that
smoke.py can run all three in a few seconds.
"""

DESK_MODEL = dict(num_classes=8, input_size=(96, 96),
                  low_channels=((24, 2), (48, 2)), seg_channels=(64, 64),
                  dml_extra_stride=2, window_sizes=(11, 5, 3), levels=3)

CHECK_MODEL = dict(num_classes=4, input_size=(32, 32),
                   low_channels=((8, 2), (8, 2)), seg_channels=(8, 8),
                   dml_extra_stride=2, window_sizes=(5, 3, 1), levels=3)

# smallest network with every describe name of the two above
TINY_MODEL = dict(num_classes=3, input_size=(16, 16),
                  low_channels=((2, 2), (2, 2)), seg_channels=(2, 2),
                  dml_extra_stride=2, window_sizes=(5, 3, 1), levels=3)

SIZES = {
    "full": dict(
        model=DESK_MODEL,
        n_train=64, n_val=48,            # desk corpus written per set-up
        train_iterations=60,             # fixed schedule of one train_desk round
        infer_setup_iterations=8,        # "trained briefly" model of infer_desk
        eval_every=20,                   # periodic checkpoint interval
        check_model=CHECK_MODEL,         # grad-checked network
        small_n_train=8, small_n_val=4,  # small-config session of a traced
        small_iterations=4,              # gradcheck_small run
        gt_sample=3,                     # masks re-derived by brute force per run
        setups=3,                        # set-ups per run; setup_s is their median
        # gradcheck_small's set-up takes about 1 ms; it is repeated this many
        # times before and after each grad check, so that its median does not
        # rest on one moment of a host whose speed drifts by up to a third
        # over tens of seconds
        check_setups=1000,
    ),
    "smoke": dict(
        model=CHECK_MODEL,
        n_train=16, n_val=8,
        train_iterations=100,
        infer_setup_iterations=4,
        eval_every=10,
        check_model=TINY_MODEL,
        small_n_train=8, small_n_val=4,
        small_iterations=4,
        gt_sample=1,
        setups=1,
        check_setups=10,
    ),
}
