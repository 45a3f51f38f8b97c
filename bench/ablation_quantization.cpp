// ABL-QUANT — deployment ablation: the modeled accelerator stores weights
// in reduced precision (hw/calibration.h budgets 8-bit weights in BRAM).
// Trains one model in float32, then fake-quantizes its weights at several
// bit widths and re-evaluates accuracy and firing rate — the question a
// designer answers before committing a model to on-chip memory.
#include <iostream>
#include <memory>

#include "core/cli.h"
#include "core/table.h"
#include "data/dataloader.h"
#include "data/encoders.h"
#include "data/synth_svhn.h"
#include "exp/standard_flags.h"
#include "snn/loss.h"
#include "snn/model_zoo.h"
#include "snn/quantize.h"
#include "train/trainer.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("train-size", "256", "training images");
  flags.declare("epochs", "10", "training epochs");
  flags.declare("image-size", "16", "image side length");
  exp::declare_standard_flags(flags, exp::DriverKind::kFit);
  return run_main(flags, argc, argv, [&] {
    const std::int64_t img = flags.get_int("image-size");
    auto splits = data::make_synth_svhn_splits(flags.get_int("train-size"), 128,
                                               img, 0xda7a);
    std::shared_ptr<const data::Dataset> train_base =
        std::make_shared<data::InMemoryDataset>(
            data::InMemoryDataset::from(splits.train));
    std::shared_ptr<const data::Dataset> test_base =
        std::make_shared<data::InMemoryDataset>(
            data::InMemoryDataset::from(splits.test));
    const auto means = data::channel_means(*train_base);
    const std::vector<float> stds(means.size(), 0.25f);
    auto train_ds =
        std::make_shared<data::NormalizedDataset>(train_base, means, stds);
    auto test_ds =
        std::make_shared<data::NormalizedDataset>(test_base, means, stds);

    snn::CsnnConfig mcfg;
    mcfg.image_size = img;
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

    std::cout << "== ABL-QUANT: post-training weight quantization ==\n"
              << "training the float32 reference model...\n"
              << std::flush;
    data::DataLoader train_loader(train_ds, tcfg.batch_size, true, 0xda7a);
    data::DataLoader test_loader(test_ds, tcfg.batch_size, false);
    trainer.fit(train_loader);

    // Keep the float32 weights so each bit width starts from the same model.
    std::vector<Tensor> reference;
    for (const snn::Param* param : net->params())
      reference.push_back(param->value);
    const auto restore_reference = [&] {
      std::size_t i = 0;
      for (snn::Param* param : net->params()) param->value = reference[i++];
    };

    AsciiTable table({"weight bits", "test acc", "fire-rate",
                      "mean |w - q(w)|"});
    table.set_title("accuracy vs weight precision (same trained model)");
    for (int bits : {16, 8, 6, 5, 4, 3, 2}) {
      restore_reference();
      const auto q = snn::quantize_network(*net, bits);
      const auto m = trainer.evaluate(test_loader);
      table.add_row({std::to_string(bits), fmt_pct(m.accuracy, 1),
                     fmt_pct(m.firing_rate, 2), fmt_f(q.mean_abs_error, 5)});
    }
    // Float32 reference row.
    restore_reference();
    const auto ref = trainer.evaluate(test_loader);
    table.add_row({"32 (float)", fmt_pct(ref.accuracy, 1),
                   fmt_pct(ref.firing_rate, 2), "0.00000"});
    table.print(std::cout);
    std::cout << "the 8-bit row justifies hw/calibration.h's 1-byte weight "
                 "BRAM budget.\n";
    return 0;
  });
}
