// Train → checkpoint → quantize → map: the deployment workflow.
//
// Trains a model, saves it to a binary checkpoint, reloads it into a fresh
// network (proving the checkpoint is self-sufficient), fake-quantizes the
// weights to the accelerator's 8-bit storage format, re-evaluates, and maps
// the quantized model onto the hardware.
#include <cstdio>
#include <iostream>
#include <memory>

#include "core/cli.h"
#include "core/table.h"
#include "data/dataloader.h"
#include "data/encoders.h"
#include "data/synth_svhn.h"
#include "exp/standard_flags.h"
#include "hw/accelerator.h"
#include "snn/checkpoint.h"
#include "snn/model_zoo.h"
#include "snn/quantize.h"
#include "train/trainer.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("epochs", "10", "training epochs");
  flags.declare("checkpoint", "/tmp/spiketune_deploy.bin",
                "checkpoint path");
  exp::declare_standard_flags(flags, exp::DriverKind::kFit);
  return run_main(flags, argc, argv, [&] {
    // Data.
    auto splits = data::make_synth_svhn_splits(256, 128, 16, 0xda7a);
    auto train_base = std::make_shared<data::InMemoryDataset>(
        data::InMemoryDataset::from(splits.train));
    auto test_base = std::make_shared<data::InMemoryDataset>(
        data::InMemoryDataset::from(splits.test));
    const auto means = data::channel_means(*train_base);
    const std::vector<float> stds(means.size(), 0.25f);
    auto train_ds = std::make_shared<data::NormalizedDataset>(
        std::shared_ptr<const data::Dataset>(train_base), means, stds);
    auto test_ds = std::make_shared<data::NormalizedDataset>(
        std::shared_ptr<const data::Dataset>(test_base), means, stds);
    data::DataLoader train_loader(train_ds, 32, true, 7);
    data::DataLoader test_loader(test_ds, 32, false);

    // Train.
    snn::CsnnConfig mcfg;
    mcfg.image_size = 16;
    mcfg.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);
    auto net = snn::make_svhn_csnn(mcfg);
    data::DirectEncoder encoder;
    snn::RateCrossEntropyLoss loss(8.0);
    train::TrainerConfig tcfg;
    tcfg.epochs = flags.get_int("epochs");
    tcfg.num_steps = 8;
    tcfg.batch_size = 32;
    tcfg.base_lr = 5e-3;
    tcfg.verbose = false;
    const auto std_flags = exp::apply_standard_flags(flags, tcfg);
    train::Trainer trainer(*net, encoder, loss, tcfg);
    std::cout << "training (" << tcfg.epochs << " epochs)...\n" << std::flush;
    trainer.fit(train_loader);
    const auto float_eval = trainer.evaluate(test_loader);

    // Checkpoint round trip into a *fresh* network.
    const std::string ckpt = flags.get("checkpoint");
    snn::save_network(ckpt, *net);
    auto restored = snn::make_svhn_csnn(mcfg);
    snn::load_network(ckpt, *restored);
    train::TrainerConfig eval_cfg = tcfg;
    eval_cfg.checkpoint_dir.clear();  // the restored trainer only evaluates
    eval_cfg.resume = false;
    train::Trainer restored_trainer(*restored, encoder, loss, eval_cfg);
    const auto restored_eval = restored_trainer.evaluate(test_loader);

    // Quantize to the accelerator's 8-bit weight storage and re-evaluate.
    const auto qreport = snn::quantize_network(*restored, 8);
    const auto quant_eval = restored_trainer.evaluate(test_loader);

    AsciiTable table({"model", "test acc", "fire-rate"});
    table.set_title("deployment pipeline");
    table.add_row({"trained float32", fmt_pct(float_eval.accuracy, 2),
                   fmt_pct(float_eval.firing_rate, 2)});
    table.add_row({"checkpoint round-trip", fmt_pct(restored_eval.accuracy, 2),
                   fmt_pct(restored_eval.firing_rate, 2)});
    table.add_row({"8-bit quantized", fmt_pct(quant_eval.accuracy, 2),
                   fmt_pct(quant_eval.firing_rate, 2)});
    table.print(std::cout);
    std::cout << "quantization mean |w - q(w)| = "
              << fmt_f(qreport.mean_abs_error, 5) << " over "
              << qreport.num_values << " weights\n\n";

    // Map the deployable model.
    hw::Accelerator accel;
    const auto report =
        accel.map(*restored, quant_eval.record, tcfg.num_steps, true);
    std::cout << report.summary();
    std::remove(ckpt.c_str());
    return 0;
  });
}
