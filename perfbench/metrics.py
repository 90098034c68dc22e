"""Metric definitions: units, direction, and what each per-layer metric moves.

BENCHMARK.json at the checkout root lists the same names, units and
directions (plus the end-to-end bounds); a test keeps the two in step.
Its metric entries may carry only name, unit, better (and bound), so the
end-to-end metric each per-layer metric is expected to move is kept here.
"""

# name -> (unit, better, what it is)
END_TO_END = {
    "pipeline_rel": ("x_ref", "lower",
                     "median wall time of the workload's timed CLI sequence, "
                     "in units of the reference kernel timed between its stages"),
    "accuracy": ("fraction", "higher",
                 "per-syllable test accuracy that eval reports for the "
                 "workload's main checkpoint: attn, rf, attn"),
    "setup_s": ("s", "lower", "median set-up time over the run's set-ups"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the workload process"),
}

ALL = "all workloads"
AT, BL, AF = "attn-train", "baselines", "audio-featurize"

# name -> (unit, better, end-to-end metric it moves, on which workloads)
PER_LAYER = {
    "cli.synth_s": ("s", "lower", "pipeline_rel", BL),
    "cli.split_s": ("s", "lower", "pipeline_rel", BL),
    "cli.train_s": ("s", "lower", "pipeline_rel (train)", f"{AT}, {BL}"),
    "cli.eval_s": ("s", "lower", "pipeline_rel (scoring)", ALL),
    "cli.predict_s": ("s", "lower", "pipeline_rel (scoring)", ALL),
    "cli.pca_s": ("s", "lower", "pipeline_rel", AT),
    "cli.featurize_s": ("s", "lower", "pipeline_rel, featurize_audio_x", AF),
    "cli.label_s": ("s", "lower", "pipeline_rel", AF),
    "cli.self_s": ("s", "lower", "pipeline_rel", ALL),
    "cli.featurize_audio_x": ("audio_s/s", "higher", "pipeline_rel", AF),
    "cli.predict_words_per_s": ("words/s", "higher", "pipeline_rel", ALL),
    "lexicon.load_dictionary_s": ("s", "lower", "pipeline_rel", ALL),
    "lexicon.load_dictionary_calls": ("count", "lower", "pipeline_rel", ALL),
    "corpus.synth_corpus_s": ("s", "lower", "pipeline_rel", BL),
    "corpus.split_s": ("s", "lower", "pipeline_rel", BL),
    "corpus.instances_from_table_s": ("s", "lower", "pipeline_rel", ALL),
    "corpus.compute_class_weights_s": ("s", "lower", "pipeline_rel (train)", AT),
    "corpus.load_alignment_s": ("s", "lower", "pipeline_rel", AF),
    "corpus.label_utterance_s": ("s", "lower", "pipeline_rel", AF),
    "corpus.label_utterance_calls": ("count", "lower", "pipeline_rel", AF),
    "features.read_feature_table_s": ("s", "lower", "pipeline_rel", ALL),
    "features.write_feature_table_s": ("s", "lower", "pipeline_rel", ALL),
    "features.records_read": ("count", "lower", "pipeline_rel", ALL),
    "features.records_written": ("count", "lower", "pipeline_rel", ALL),
    "features.extract_features_s": ("s", "lower", "featurize_audio_x", AF),
    "features.normalize_sentence_s": ("s", "lower", "pipeline_rel", ALL),
    "dsp.read_wav_s": ("s", "lower", "featurize_audio_x, pipeline_s", AF),
    "dsp.estimate_pitch_s": ("s", "lower", "featurize_audio_x, pipeline_s", AF),
    "dsp.compute_intensity_s": ("s", "lower", "featurize_audio_x, pipeline_s", AF),
    "dsp.frames": ("count", "lower", "featurize_audio_x", AF),
    "dsp.pitch_rtf": ("audio_s/s", "higher", "featurize_audio_x", AF),
    "network.forward_calls": ("count", "lower", "pipeline_rel (train, scoring)",
                              f"{AT}, {AF}"),
    "network.forward_s": ("s", "lower", "pipeline_rel (train, scoring)", f"{AT}, {AF}"),
    "network.backward_s": ("s", "lower", "pipeline_rel (train)", AT),
    "network.loss_from_logits_s": ("s", "lower", "pipeline_rel (train)", AT),
    "network.slots_computed": ("count", "lower", "pipeline_rel (train)", AT),
    "network.valid_slot_ratio": ("ratio", "higher", "pipeline_rel (train)", AT),
    "training.train_s": ("s", "lower", "pipeline_rel (train)", AT),
    "training.steps": ("count", "lower", "pipeline_rel (train)", AT),
    "training.loss_and_grads_s": ("s", "lower", "pipeline_rel (train)", AT),
    "training.adam_step_s": ("s", "lower", "pipeline_rel (train)", AT),
    "training.evaluate_batch_s": ("s", "lower", "pipeline_rel (train)", AT),
    "training.make_batch_s": ("s", "lower", "pipeline_rel (train)", AT),
    "training.words_per_s": ("words/s", "higher", "pipeline_rel (train)", AT),
    "training.predict_instance_s": ("s", "lower", "pipeline_rel (scoring)",
                                    f"{AT}, {AF}"),
    "training.predict_instance_p50_us": ("us", "lower", "pipeline_rel (scoring)",
                                         f"{AT}, {AF}"),
    "training.predict_instance_phi_us": ("us", "lower", "pipeline_rel (scoring)",
                                         f"{AT}, {AF}"),
    "training.predict_instance_phi_pct": ("percentile", "higher",
                                          "pipeline_rel (scoring)", f"{AT}, {AF}"),
    "training.predict_instance_samples": ("count", "higher", "pipeline_rel (scoring)",
                                          f"{AT}, {AF}"),
    "baselines.train_forest_s": ("s", "lower", "pipeline_rel (train)", BL),
    "baselines.forest_nodes": ("count", "lower", "pipeline_rel (train, scoring)", BL),
    "baselines.train_ordinal_s": ("s", "lower", "pipeline_rel (train)", BL),
    "baselines.vote_shares_s": ("s", "lower", "pipeline_rel (scoring)", BL),
    "baselines.vote_shares_calls": ("count", "lower", "pipeline_rel (scoring)", BL),
    "baselines.class_probs_s": ("s", "lower", "pipeline_rel (scoring)", BL),
    "baselines.class_probs_calls": ("count", "lower", "pipeline_rel (scoring)", BL),
    "baselines.rows_per_score_call": ("rows/call", "higher", "pipeline_rel (scoring)", BL),
    "checkpoint.save_s": ("s", "lower", "pipeline_rel (train)", ALL),
    "checkpoint.bytes_written": ("bytes", "lower", "pipeline_rel (train)", ALL),
    "checkpoint.load_any_s": ("s", "lower", "pipeline_rel (scoring)", ALL),
    "checkpoint.load_container_per_load": ("count", "lower", "pipeline_rel (scoring)",
                                           ALL),
    "evaluation.evaluate_s": ("s", "lower", "pipeline_rel", ALL),
    "evaluation.render_report_s": ("s", "lower", "pipeline_rel", ALL),
    "evaluation.pca_type_embeddings_s": ("s", "lower", "pipeline_rel", AT),
    "evaluation.attn_accuracy": ("fraction", "higher", "accuracy", f"{AT}, {AF}"),
    "evaluation.rf_accuracy": ("fraction", "higher", "accuracy", BL),
    "evaluation.or_accuracy": ("fraction", "higher", "none (not bounded)", BL),
    "tracing.pipeline_untraced_s": ("s", "lower", "pipeline_rel", ALL),
    "tracing.pipeline_traced_s": ("s", "lower", "pipeline_rel", ALL),
    "tracing.overhead_s": ("s", "lower", "none (cost of tracing itself)", ALL),
    "tracing.spans": ("count", "lower", "none (cost of tracing itself)", ALL),
}
